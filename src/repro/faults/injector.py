"""Deterministic per-session fault injection.

A :class:`SessionFaultState` is the runtime half of a
:class:`~repro.faults.spec.FaultSpec`: each (trace, scheme) replay whose
setup carries a non-null spec opens one.  The state owns the session's
RNG — seeded from :func:`repro.utils.stable_seed` over the spec seed plus
the session identity — so the fault stream each replay sees is a
pure function of *what* is being replayed, never of worker count, job
order, or which other sessions share the sweep.

The state is also the session's fault ledger.  Each injection site reports
what it did (``flip_prediction``, ``note_dvfs_fault``, ``sense``,
``transform``), and :meth:`SessionFaultState.finalize` folds the ledger
against the per-event QoS outcomes into a
:class:`~repro.runtime.metrics.FaultSessionStats`: a fault is *recovered*
when the event it hit still met its deadline (for sensor faults: when the
corrupted reading still mapped to the correct throttle cap).

Temporal correlation lives here too: each category with a non-null
:class:`~repro.faults.spec.BurstModel` owns a per-session
:class:`_GilbertElliott` chain, stepped once per opportunity *before* the
category's own draws so the chain's randomness never interleaves with
them.  A chain that can never engage (``enter_rate == 0``) is not built at
all, keeping the no-burst RNG stream bit-identical to PR 6.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.faults.spec import BurstModel, FaultSpec
from repro.traces.trace import Trace, TraceEvent
from repro.utils import stable_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.hardware.thermal import ThermalModel
    from repro.runtime.metrics import EventOutcome, FaultSessionStats


class _GilbertElliott:
    """Per-session two-state burst chain for one fault category.

    ``step`` advances the chain one opportunity and returns the rate
    multiplier now in force.  Both transition draws are guarded behind
    their rates, so a chain never consumes randomness it cannot act on
    (an ``exit_rate == 0`` burst latches permanently without drawing).
    """

    __slots__ = ("enter_rate", "exit_rate", "multiplier", "in_burst")

    def __init__(self, model: BurstModel) -> None:
        self.enter_rate = model.enter_rate
        self.exit_rate = model.exit_rate
        self.multiplier = model.burst_multiplier
        self.in_burst = False

    def step(self, rng: random.Random) -> float:
        if self.in_burst:
            if self.exit_rate and rng.random() < self.exit_rate:
                self.in_burst = False
        elif self.enter_rate and rng.random() < self.enter_rate:
            self.in_burst = True
        return self.multiplier if self.in_burst else 1.0


@dataclass(frozen=True)
class BatteryEffect:
    """What the battery seam does to one executed event."""

    power_scale: float = 1.0
    cap_mhz: int | None = None
    force_lowest: bool = False


#: The one null effect, shared by fault-free replays and quiet draws.
NO_BATTERY_EFFECT = BatteryEffect()


class SessionFaultState:
    """Mutable fault stream + ledger for one (trace, scheme) replay."""

    def __init__(self, spec: FaultSpec, trace: Trace, scheme: str) -> None:
        self.spec = spec
        self._rng = random.Random(
            stable_seed(
                "faults",
                spec.seed,
                spec.name,
                trace.app_name,
                trace.user_id,
                trace.seed,
                scheme,
            )
        )
        # Ledger: event indices (post-transform) each fault category hit.
        self._flip_indices: set[int] = set()
        self._dvfs_indices: set[int] = set()
        self._dup_indices: set[int] = set()
        self._jit_indices: set[int] = set()
        self.events_dropped = 0
        self.fault_energy_mj = 0.0
        # Sensor channel state.
        self.sensor_injected = 0
        self.sensor_recovered = 0
        self._sensor_stuck_at: float | None = None
        self._sensor_history: deque[float] = deque(maxlen=spec.sensor.lag_readings + 1)
        # Battery channel state.
        self._battery_indices: set[int] = set()
        self._brownout_until_ms = float("-inf")
        # Burst chains, built only for categories that can both fault and
        # burst — a chain that cannot engage must not exist, so the RNG
        # stream of a burst-free spec stays bit-identical to PR 6.
        self._chains: dict[str, _GilbertElliott] = {}
        chain_candidates = (
            ("predictor", spec.predictor, spec.predictor.flip_rate > 0.0),
            ("sensor", spec.sensor, spec.sensor.stuck_rate > 0.0 or spec.sensor.noise_c > 0.0),
            ("dvfs", spec.dvfs, spec.dvfs.fail_rate > 0.0),
            ("events", spec.events, not spec.events.is_null),
            ("battery", spec.battery, not spec.battery.is_null),
        )
        for name, category, can_fault in chain_candidates:
            if can_fault and category.burst is not None and not category.burst.is_null:
                self._chains[name] = _GilbertElliott(category.burst)

    def _burst_factor(self, category: str) -> float:
        """Step the category's burst chain (if any); the multiplier in force."""
        chain = self._chains.get(category)
        return 1.0 if chain is None else chain.step(self._rng)

    # -- event-stream faults ----------------------------------------------------

    def transform(self, trace: Trace) -> Trace:
        """Apply drop/jitter/duplicate faults, returning a valid trace.

        Draw order per original event is fixed (drop, then jitter, then
        duplicate) so adding one fault category to a spec never perturbs
        another category's stream.  Zero-rate categories draw nothing at
        all, which is what makes a zero-rate spec's RNG stream — and thus
        the whole replay — identical to the category being absent.
        """
        faults = self.spec.events
        if faults.is_null:
            return trace
        rng = self._rng
        jitter_active = faults.jitter_rate > 0.0 and faults.jitter_ms > 0.0
        # (arrival, original event, kind) triples; kind drives ledger tagging
        # after the stable re-sort assigns final indices.
        staged: list[tuple[float, TraceEvent, str]] = []
        for event in trace.events:
            factor = self._burst_factor("events")
            if faults.drop_rate and rng.random() < min(1.0, faults.drop_rate * factor):
                self.events_dropped += 1
                continue
            arrival = event.arrival_ms
            kind = "kept"
            if jitter_active and rng.random() < min(1.0, faults.jitter_rate * factor):
                arrival = max(0.0, arrival + rng.uniform(-faults.jitter_ms, faults.jitter_ms))
                kind = "jittered"
            staged.append((arrival, event, kind))
            if faults.duplicate_rate and rng.random() < min(1.0, faults.duplicate_rate * factor):
                staged.append((arrival, event, "duplicate"))
        staged.sort(key=lambda item: item[0])  # stable: ties keep draw order
        rebuilt: list[TraceEvent] = []
        for position, (arrival, event, kind) in enumerate(staged):
            if kind == "duplicate":
                self._dup_indices.add(position)
            elif kind == "jittered":
                self._jit_indices.add(position)
            rebuilt.append(
                TraceEvent(
                    index=position,
                    event_type=event.event_type,
                    node_id=event.node_id,
                    arrival_ms=arrival,
                    workload=event.workload,
                    navigates=event.navigates,
                )
            )
        return Trace(trace.app_name, trace.user_id, rebuilt, seed=trace.seed)

    # -- predictor faults -------------------------------------------------------

    def flip_prediction(self, event_index: int) -> bool:
        """Whether to force this validated MATCH into a misprediction."""
        rate = self.spec.predictor.flip_rate
        if not rate:
            return False
        rate = min(1.0, rate * self._burst_factor("predictor"))
        if self._rng.random() < rate:
            self._flip_indices.add(event_index)
            return True
        return False

    def note_fault_energy(self, energy_mj: float) -> None:
        """Charge energy wasted as a direct consequence of an injected fault."""
        self.fault_energy_mj += energy_mj

    # -- DVFS transition faults -------------------------------------------------

    def dvfs_transition_fails(self) -> bool:
        """Whether the configuration transition being attempted fails."""
        rate = self.spec.dvfs.fail_rate
        if not rate:
            return False
        rate = min(1.0, rate * self._burst_factor("dvfs"))
        return self._rng.random() < rate

    def note_dvfs_fault(self, event_index: int, penalty_mj: float) -> None:
        self._dvfs_indices.add(event_index)
        self.fault_energy_mj += penalty_mj

    # -- thermal sensor faults --------------------------------------------------

    def sense(self, true_c: float, model: "ThermalModel") -> float:
        """The temperature the throttle governor sees for this reading.

        Recovery is judged per reading: a corrupted reading that still maps
        to the true reading's throttle cap did not change behaviour.
        """
        faults = self.spec.sensor
        if faults.is_null:
            return true_c
        if self._sensor_stuck_at is not None:
            sensed = self._sensor_stuck_at
        else:
            # A latched sensor makes no further draws, so the chain freezes
            # with it; bursts scale the noise magnitude and the stuck rate.
            factor = self._burst_factor("sensor")
            self._sensor_history.append(true_c)
            sensed = self._sensor_history[0]  # oldest retained = lagged reading
            if faults.noise_c:
                sensed += self._rng.gauss(0.0, faults.noise_c * factor)
            if faults.stuck_rate and self._rng.random() < min(1.0, faults.stuck_rate * factor):
                self._sensor_stuck_at = sensed
        if sensed != true_c:
            self.sensor_injected += 1
            if model.cap_mhz(sensed) == model.cap_mhz(true_c):
                self.sensor_recovered += 1
        return sensed

    # -- battery / power-rail faults --------------------------------------------

    def battery_event(
        self, event_index: int, start_ms: float, *, planning: bool = True
    ) -> BatteryEffect:
        """Battery-seam effect for one executed event.

        Draw order per event is fixed — burst chain, sag, brown-out,
        misreport — and every draw is made whenever its base rate is
        non-zero, so which sub-channels *apply* (a dwell in force, a
        misreport subsumed by a brown-out) never perturbs the stream.
        ``planning=False`` marks call sites past any planning decision
        (speculative commits, oracle chunk plans): the misreport draw
        still happens there but caps nothing and is not counted as a hit.
        """
        faults = self.spec.battery
        if faults.is_null:
            return NO_BATTERY_EFFECT
        rng = self._rng
        factor = self._burst_factor("battery")
        sagged = bool(faults.sag_rate) and rng.random() < min(1.0, faults.sag_rate * factor)
        browned = bool(faults.brownout_rate) and rng.random() < min(
            1.0, faults.brownout_rate * factor
        )
        misreported = bool(faults.misreport_rate) and rng.random() < min(
            1.0, faults.misreport_rate * factor
        )
        in_dwell = start_ms < self._brownout_until_ms
        if browned:
            self._brownout_until_ms = max(
                self._brownout_until_ms, start_ms + faults.brownout_dwell_ms
            )
        force_lowest = browned or in_dwell
        sagged = sagged and faults.sag_power_scale != 1.0
        misreported = misreported and planning and not force_lowest
        if sagged or force_lowest or misreported:
            self._battery_indices.add(event_index)
        if not (sagged or force_lowest or misreported):
            return NO_BATTERY_EFFECT
        return BatteryEffect(
            power_scale=faults.sag_power_scale if sagged else 1.0,
            cap_mhz=faults.misreport_cap_mhz if misreported else None,
            force_lowest=force_lowest,
        )

    # -- session summary --------------------------------------------------------

    def finalize(self, outcomes: Iterable["EventOutcome"]) -> "FaultSessionStats":
        """Fold the ledger against QoS outcomes into per-session stats.

        An event-anchored fault is *recovered* when the event it hit still
        met its deadline.  Dropped events have no outcome and never
        recover.  Sensor faults carry their own per-reading recovery
        judgement from :meth:`sense`.
        """
        from repro.runtime.metrics import FaultSessionStats

        met_deadline = {o.index for o in outcomes if not o.violated}

        def recovered(indices: set[int]) -> int:
            return len(indices & met_deadline)

        stream_injected_indices = self._dup_indices | self._jit_indices
        return FaultSessionStats(
            predictor_injected=len(self._flip_indices),
            predictor_recovered=recovered(self._flip_indices),
            dvfs_injected=len(self._dvfs_indices),
            dvfs_recovered=recovered(self._dvfs_indices),
            sensor_injected=self.sensor_injected,
            sensor_recovered=self.sensor_recovered,
            events_dropped=self.events_dropped,
            events_duplicated=len(self._dup_indices),
            events_jittered=len(self._jit_indices),
            stream_recovered=recovered(stream_injected_indices),
            battery_injected=len(self._battery_indices),
            battery_recovered=recovered(self._battery_indices),
            fault_energy_mj=self.fault_energy_mj,
        )
