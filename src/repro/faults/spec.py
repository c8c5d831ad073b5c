"""Declarative fault specifications for resilience evaluation.

The paper's most honest figure (Fig. 10, misprediction waste) already asks
"what does being wrong cost?" — but a trained predictor can only be wrong
in the one way it happens to be wrong.  A :class:`FaultSpec` makes
wrongness a *swept axis*: a named, JSON-round-tripping bundle of seeded
fault models that the scenario machinery cross-products like any other
axis (``ScenarioMatrix.fault_specs``, ``scenarios run --faults``).

Five fault models, one per seam the engines expose:

* :class:`PredictorFaults` — flip validated MATCH verdicts to
  mispredictions at a configurable rate, stressing PES's EBS-fallback
  recovery path beyond the trained accuracy,
* :class:`SensorFaults` — stuck/lagged/noisy temperature readings feeding
  the dynamic throttle governor (``thermal_mode="dynamic"``), so the cap
  the scheduler plans against diverges from the true package temperature,
* :class:`DvfsFaults` — a requested frequency/cluster transition fails:
  the hardware keeps the prior configuration and the attempted switch
  latency is charged as pure penalty,
* :class:`EventStreamFaults` — dropped/duplicated/jittered events in the
  session replay itself,
* :class:`BatteryFaults` — power-rail trouble: voltage sag inflating the
  effective power draw, brown-outs forcing the lowest DVFS rung for a
  dwell, and fuel-gauge misreports that cap planning at the
  ``low_battery`` regime's ladder.

Real failures are *bursty* — a flaky sensor is flaky for a stretch, a
sagging rail sags for whole phases — so every per-reading rate can carry
an optional two-state Gilbert–Elliott :class:`BurstModel`: a per-session
Markov chain that multiplies the category's rates by ``burst_multiplier``
while in the burst state.  A model that can never enter the burst state
(``enter_rate == 0``) draws nothing and is bit-identical to no model.

Everything is data: validation happens at construction (mirroring
:class:`~repro.scenarios.spec.ScenarioSpec`), rates are probabilities in
``[0, 1]``, and ``to_dict``/``from_dict`` round-trip losslessly through
the JSON artefacts.  The identity invariant the whole subsystem is pinned
on: a spec whose every rate and magnitude is zero (``is_null``) injects
*nothing* — a session replay opens no
:class:`~repro.faults.injector.SessionFaultState` for it, so zero-rate and
absent specs are bit-identical to the fault-free path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields


# Float bound checks in this module are negated (``not x >= bound``) so
# that NaN fails them: a ``--faults`` spec file can spell NaN and Infinity.
def _check_rate(owner: str, name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{owner}.{name} must be a probability in [0, 1], got {value}")


def _check_magnitude(owner: str, name: str, value: float, low: float = 0.0) -> None:
    if not low <= value < math.inf:
        raise ValueError(f"{owner}.{name} must be finite and >= {low:g}, got {value}")


@dataclass(frozen=True)
class BurstModel:
    """Two-state Gilbert–Elliott modulation of a fault category's rates.

    A per-session Markov chain over {normal, burst}: from normal the chain
    enters the burst state with probability ``enter_rate`` per opportunity
    (one opportunity per reading/event the category faces), and leaves it
    with probability ``exit_rate``.  While in the burst state every rate in
    the owning category is multiplied by ``burst_multiplier`` (clamped to a
    probability), so faults arrive in correlated stretches whose expected
    length is ``1 / exit_rate`` opportunities and whose stationary
    occupancy is ``enter_rate / (enter_rate + exit_rate)``.

    The identity invariant extends to the chain itself: a model with
    ``enter_rate == 0`` can never leave the normal state, so no chain draw
    is ever made and behaviour is bit-identical to having no model.
    """

    enter_rate: float = 0.0
    exit_rate: float = 1.0
    burst_multiplier: float = 1.0

    def __post_init__(self) -> None:
        _check_rate("burst", "enter_rate", self.enter_rate)
        _check_rate("burst", "exit_rate", self.exit_rate)
        _check_magnitude("burst", "burst_multiplier", self.burst_multiplier)

    @property
    def is_null(self) -> bool:
        """True when the chain can never engage (no draws, no effect)."""
        return self.enter_rate == 0.0 or self.burst_multiplier == 1.0

    @property
    def occupancy(self) -> float:
        """Stationary probability of the burst state."""
        denominator = self.enter_rate + self.exit_rate
        return self.enter_rate / denominator if denominator else 0.0

    def effective_rate(self, base_rate: float) -> float:
        """Stationary expected per-opportunity fault probability.

        Weighs the normal-state rate and the (clamped) burst-state rate by
        the chain's stationary occupancy — the honest "rate mass" a bursty
        category spends, used by the fault-search budget.
        """
        occupancy = self.occupancy
        burst_rate = min(1.0, base_rate * self.burst_multiplier)
        return (1.0 - occupancy) * base_rate + occupancy * burst_rate


def _model_to_dict(model) -> dict:
    """A fault model's fields in declaration order, then ``burst`` if set.

    The "burst" key is emitted only when a model is present, so burst-free
    specs keep the exact payload bytes they had before the model existed.
    """
    payload = {f.name: getattr(model, f.name) for f in fields(model) if f.name != "burst"}
    burst = getattr(model, "burst", None)
    if burst is not None:
        payload["burst"] = _model_to_dict(burst)
    return payload


def _model_from_dict(cls, payload: dict):
    """Inverse of :func:`_model_to_dict`: a missing key takes the field's
    default, and every value is coerced to the default's type."""
    kwargs = {}
    for f in fields(cls):
        if f.name == "burst":
            burst = payload.get("burst")
            kwargs["burst"] = None if burst is None else _model_from_dict(BurstModel, burst)
        else:
            kwargs[f.name] = type(f.default)(payload.get(f.name, f.default))
    return cls(**kwargs)


@dataclass(frozen=True)
class PredictorFaults:
    """Force validated predictions wrong at a configurable rate.

    ``flip_rate`` is the per-event probability that a prediction the
    control unit *would* have matched is treated as a misprediction
    instead: the speculative round is squashed (its truncated work charged
    as waste), the consecutive-miss counter advances — so a high flip rate
    also exercises prediction *disabling* — and the event runs through the
    EBS fallback.
    """

    flip_rate: float = 0.0
    burst: BurstModel | None = None

    def __post_init__(self) -> None:
        _check_rate("predictor", "flip_rate", self.flip_rate)

    @property
    def is_null(self) -> bool:
        # A burst model only multiplies the rate, so zero rate stays null.
        return self.flip_rate == 0.0


@dataclass(frozen=True)
class SensorFaults:
    """Corrupt the temperature readings the dynamic throttle governor sees.

    Applied per thermal-state advancement (each idle gap and active
    interval produces one reading): ``lag_readings`` reports the true
    temperature from that many updates ago, ``noise_c`` adds Gaussian
    noise (standard deviation in °C), and ``stuck_rate`` is the
    per-reading probability that the sensor latches its current (already
    lagged/noisy) value *permanently* for the rest of the session.  The
    true physics are untouched — only the cap the scheduler plans against
    is derived from the faulted reading.  Inert outside
    ``thermal_mode="dynamic"`` (there is no live sensor to corrupt).
    """

    stuck_rate: float = 0.0
    lag_readings: int = 0
    noise_c: float = 0.0
    burst: BurstModel | None = None

    def __post_init__(self) -> None:
        _check_rate("sensor", "stuck_rate", self.stuck_rate)
        if self.lag_readings < 0:
            raise ValueError(f"sensor.lag_readings must be non-negative, got {self.lag_readings}")
        _check_magnitude("sensor", "noise_c", self.noise_c)

    @property
    def is_null(self) -> bool:
        return self.stuck_rate == 0.0 and self.lag_readings == 0 and self.noise_c == 0.0


@dataclass(frozen=True)
class DvfsFaults:
    """Requested configuration transitions fail at a configurable rate.

    ``fail_rate`` is the per-attempt probability (drawn only when an event
    actually requests a configuration different from the current one) that
    the transition does not land: the event executes entirely at the prior
    configuration while the attempted switch latency is still charged — as
    time *and* as energy at the prior configuration's power — modelling a
    DVFS write that is rejected after the voltage ramp already started.
    """

    fail_rate: float = 0.0
    burst: BurstModel | None = None

    def __post_init__(self) -> None:
        _check_rate("dvfs", "fail_rate", self.fail_rate)

    @property
    def is_null(self) -> bool:
        return self.fail_rate == 0.0


@dataclass(frozen=True)
class EventStreamFaults:
    """Perturb the replayed event stream itself.

    Per original event, in draw order: ``drop_rate`` removes the event
    entirely (an input the system never saw), ``jitter_rate`` shifts its
    arrival by a uniform offset in ``[-jitter_ms, +jitter_ms]`` (clamped
    at zero), and ``duplicate_rate`` appends a second copy at the same
    arrival (a bounced input).  The transformed stream is re-sorted and
    re-indexed, so it is a valid trace by construction.
    """

    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    jitter_rate: float = 0.0
    jitter_ms: float = 0.0
    burst: BurstModel | None = None

    def __post_init__(self) -> None:
        _check_rate("events", "drop_rate", self.drop_rate)
        _check_rate("events", "duplicate_rate", self.duplicate_rate)
        _check_rate("events", "jitter_rate", self.jitter_rate)
        _check_magnitude("events", "jitter_ms", self.jitter_ms)

    @property
    def is_null(self) -> bool:
        # jitter needs both a rate and a magnitude to do anything.
        return (
            self.drop_rate == 0.0
            and self.duplicate_rate == 0.0
            and (self.jitter_rate == 0.0 or self.jitter_ms == 0.0)
        )


@dataclass(frozen=True)
class BatteryFaults:
    """Power-rail and fuel-gauge trouble, drawn once per executed event.

    Three sub-channels, in fixed draw order:

    * ``sag_rate`` — the rail sags for this event: every joule the event
      burns is scaled by ``sag_power_scale`` (≥ 1, the I²R/converter loss
      of running below nominal voltage); the extra energy is attributed to
      the fault ledger,
    * ``brownout_rate`` — a brown-out forces the event (and every event
      starting within the next ``brownout_dwell_ms``) onto the platform's
      lowest DVFS rung, overriding whatever the scheduler planned; no
      further brown-out draws are made while the dwell holds, so a dwell
      consumes no extra randomness,
    * ``misreport_rate`` — the fuel gauge reads critically low: reactive
      planning for this event is capped at ``misreport_cap_mhz`` (default
      1100 MHz, the ``low_battery`` regime's ladder).  Already-committed
      speculative frames and oracle chunk plans are past planning, so a
      misreport there draws but changes nothing.
    """

    sag_rate: float = 0.0
    sag_power_scale: float = 1.0
    brownout_rate: float = 0.0
    brownout_dwell_ms: float = 0.0
    misreport_rate: float = 0.0
    misreport_cap_mhz: int = 1_100
    burst: BurstModel | None = None

    def __post_init__(self) -> None:
        _check_rate("battery", "sag_rate", self.sag_rate)
        _check_rate("battery", "brownout_rate", self.brownout_rate)
        _check_rate("battery", "misreport_rate", self.misreport_rate)
        # A sag never saves energy.
        _check_magnitude("battery", "sag_power_scale", self.sag_power_scale, low=1.0)
        _check_magnitude("battery", "brownout_dwell_ms", self.brownout_dwell_ms)
        if self.misreport_cap_mhz <= 0:
            raise ValueError(
                f"battery.misreport_cap_mhz must be positive, got {self.misreport_cap_mhz}"
            )

    @property
    def is_null(self) -> bool:
        # A sag needs both a rate and a scale above 1 to do anything.
        return (
            (self.sag_rate == 0.0 or self.sag_power_scale == 1.0)
            and self.brownout_rate == 0.0
            and self.misreport_rate == 0.0
        )


#: The five fault categories: the :class:`FaultSpec` fields holding a fault
#: model, in payload order.
FAULT_CATEGORIES = ("predictor", "sensor", "dvfs", "events", "battery")


@dataclass(frozen=True)
class FaultSpec:
    """A named, seeded bundle of fault models — one resilience condition.

    ``seed`` feeds :func:`repro.utils.stable_seed` together with each
    session's identity (app, user, trace seed, scheme), so every replay
    draws its own deterministic fault stream: results are bit-identical
    for any worker count and independent of which other sessions run in
    the same sweep.
    """

    name: str = "faults"
    seed: int = 0
    predictor: PredictorFaults = field(default_factory=PredictorFaults)
    sensor: SensorFaults = field(default_factory=SensorFaults)
    dvfs: DvfsFaults = field(default_factory=DvfsFaults)
    events: EventStreamFaults = field(default_factory=EventStreamFaults)
    battery: BatteryFaults = field(default_factory=BatteryFaults)
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a fault spec needs a name")

    @property
    def is_null(self) -> bool:
        """True when no model can ever inject anything (zero-rate spec).

        A session replay opens no fault state for a null spec, so a
        zero-rate spec is bit-identical to running without one — the
        subsystem's pinned identity invariant.
        """
        return all(getattr(self, name).is_null for name in FAULT_CATEGORIES)

    # -- serialisation ----------------------------------------------------------

    def to_dict(self) -> dict:
        payload: dict = {"name": self.name, "seed": self.seed}
        for name in FAULT_CATEGORIES:
            model = getattr(self, name)
            # "battery" is emitted only when non-default, so specs without a
            # battery model keep the payload bytes they had before it existed
            # (journals and artefacts match specs by serialised content).  It
            # is compared against the default, not is_null: a null-but-non-
            # default block (say a sag_rate with scale 1.0) must round-trip.
            if name != "battery" or model != BatteryFaults():
                payload[name] = _model_to_dict(model)
        payload["description"] = self.description
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultSpec":
        models = {
            f.name: _model_from_dict(f.default_factory, payload.get(f.name, {}))
            for f in fields(cls)
            if f.name in FAULT_CATEGORIES
        }
        return cls(
            name=payload.get("name", "faults"),
            seed=int(payload.get("seed", 0)),
            description=payload.get("description", ""),
            **models,
        )


def _searched_pes_stress() -> FaultSpec:
    """Worst case mined by the adversarial fault search (see ``faults search``).

    ``python -m repro faults search --target pes_regression --budget-evals 24
    --seed 0`` (budget 0.6) found this spec; the full search log is committed
    as ``results/FAULT_SEARCH_pes_regression.json``.  Fault-free, PES spends
    0.85x EBS energy on the baseline_seen scenario; under this spec it spends
    **1.29x** — the speculation advantage is not just erased but inverted.
    The recipe: bursty predictor flips squash speculative work, a heavy drop
    rate starves the learner's sequence context, and rail sags surcharge the
    replays that do land, all under one shared burst chain so the damage
    arrives correlated.  Values are kept verbatim from the search so the
    preset's serialised spec matches the committed artefact's.
    """
    burst = BurstModel(
        enter_rate=0.15599858681430134,
        exit_rate=0.5567749899101886,
        burst_multiplier=3.813284214270748,
    )
    return FaultSpec(
        name="searched_pes_stress",
        predictor=PredictorFaults(flip_rate=0.061909628420243105, burst=burst),
        sensor=SensorFaults(burst=burst),
        dvfs=DvfsFaults(fail_rate=0.00613203388063181, burst=burst),
        events=EventStreamFaults(
            drop_rate=0.16036674769261913,
            jitter_rate=0.05202096174254412,
            jitter_ms=68.7041540630846,
            burst=burst,
        ),
        battery=BatteryFaults(
            sag_rate=0.05049822988261383,
            sag_power_scale=1.4497917081319944,
            brownout_rate=0.035873827725577484,
            misreport_rate=0.0045502310576366915,
            burst=burst,
        ),
        description="search-mined PES worst case: correlated predictor flips, "
        "event drops, and rail sags that invert PES's energy advantage over "
        "EBS (0.85x fault-free -> 1.29x) within a 0.6 fault budget",
    )


def _builtin_presets() -> dict[str, FaultSpec]:
    return {
        "predictor_flaky": FaultSpec(
            name="predictor_flaky",
            predictor=PredictorFaults(flip_rate=0.2),
            description="20% of validated predictions forced wrong: stresses the "
            "EBS fallback and the consecutive-miss disable path",
        ),
        "sensor_stuck": FaultSpec(
            name="sensor_stuck",
            sensor=SensorFaults(stuck_rate=0.05),
            description="thermal sensor latches permanently with 5% probability "
            "per reading (dynamic thermal mode only)",
        ),
        "sensor_noisy": FaultSpec(
            name="sensor_noisy",
            sensor=SensorFaults(noise_c=4.0, lag_readings=2),
            description="lagged, noisy thermal telemetry: readings trail two "
            "updates behind with 4 C Gaussian noise",
        ),
        "dvfs_flaky": FaultSpec(
            name="dvfs_flaky",
            dvfs=DvfsFaults(fail_rate=0.15),
            description="15% of requested configuration transitions fail; the "
            "attempted switch is charged as pure penalty",
        ),
        "lossy_events": FaultSpec(
            name="lossy_events",
            events=EventStreamFaults(
                drop_rate=0.05, duplicate_rate=0.05, jitter_rate=0.2, jitter_ms=40.0
            ),
            description="lossy input stream: 5% drops, 5% duplicates, 20% of "
            "arrivals jittered by up to 40 ms",
        ),
        "predictor_bursty": FaultSpec(
            name="predictor_bursty",
            predictor=PredictorFaults(
                flip_rate=0.05,
                burst=BurstModel(enter_rate=0.05, exit_rate=0.2, burst_multiplier=10.0),
            ),
            description="predictor flips cluster in stretches: a 5% base rate "
            "that multiplies 10x during Gilbert-Elliott bursts averaging five "
            "events (20% stationary occupancy)",
        ),
        "sensor_bursty": FaultSpec(
            name="sensor_bursty",
            sensor=SensorFaults(
                noise_c=1.0,
                burst=BurstModel(enter_rate=0.04, exit_rate=0.12, burst_multiplier=8.0),
            ),
            description="thermal telemetry degrades in stretches: 1 C baseline "
            "noise that widens to 8 C during bursts averaging ~eight readings",
        ),
        "battery_sag": FaultSpec(
            name="battery_sag",
            battery=BatteryFaults(sag_rate=0.3, sag_power_scale=1.2),
            description="aged cell under load: 30% of events draw through a "
            "sagging rail at 1.2x effective power",
        ),
        "rail_brownout": FaultSpec(
            name="rail_brownout",
            battery=BatteryFaults(
                sag_rate=0.15,
                sag_power_scale=1.15,
                brownout_rate=0.03,
                brownout_dwell_ms=250.0,
                misreport_rate=0.1,
                burst=BurstModel(enter_rate=0.03, exit_rate=0.15, burst_multiplier=6.0),
            ),
            description="failing power delivery: bursty sags, 3% brown-outs "
            "pinning the lowest rung for 250 ms, and a lying fuel gauge capping "
            "planning at the low_battery ladder 10% of the time",
        ),
        "searched_pes_stress": _searched_pes_stress(),
        "chaos": FaultSpec(
            name="chaos",
            predictor=PredictorFaults(flip_rate=0.1),
            sensor=SensorFaults(stuck_rate=0.02, noise_c=2.0),
            dvfs=DvfsFaults(fail_rate=0.1),
            events=EventStreamFaults(
                drop_rate=0.02, duplicate_rate=0.02, jitter_rate=0.1, jitter_ms=25.0
            ),
            description="every fault model at once, at moderate rates",
        ),
    }


#: Named fault conditions usable from the CLI (``--faults``) and matrices.
FAULT_PRESETS: dict[str, FaultSpec] = _builtin_presets()


def list_fault_presets() -> list[str]:
    return sorted(FAULT_PRESETS)


def get_fault_preset(name: str) -> FaultSpec:
    try:
        return FAULT_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown fault preset {name!r}; available: {', '.join(list_fault_presets())}"
        ) from None
