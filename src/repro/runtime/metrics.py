"""Per-event outcomes, per-session results, and aggregation helpers.

The paper reports two headline metrics per application: the QoS violation
rate (fraction of events whose latency exceeded the QoS target) and the
energy consumption (usually normalised to the Interactive governor).  The
classes here carry enough detail to also regenerate the secondary analyses:
mis-prediction waste (Fig. 10), PFB dynamics (Fig. 9), and the event-type
breakdown (Fig. 3).
"""

from __future__ import annotations

import base64
import json
import math
import warnings
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.webapp.events import EventType


class ExactSum:
    """Exactly-rounded streaming sum of floats (Shewchuk partials).

    Keeps the running sum as a list of non-overlapping partials whose real
    (infinite-precision) sum equals the real sum of every value ever added
    — :meth:`add` loses no information, it only re-expresses the sum.
    :attr:`value` is therefore the *correctly rounded* float of the exact
    sum, which makes the result independent of fold order and of how the
    inputs were split across shards: folding a million sessions one by one,
    or folding shard subtotals via :meth:`merge`, yields bit-identical
    values.  This is the primitive that lets ``StreamingAggregator.merge``
    promise merge ≡ sequential fold for *any* shard boundaries.
    """

    __slots__ = ("partials",)

    def __init__(self, values: Iterable[float] = ()) -> None:
        self.partials: list[float] = []
        for value in values:
            self.add(value)

    def add(self, x: float) -> None:
        """Add ``x`` exactly (two-sum cascade over the partials)."""
        partials = self.partials
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    def merge(self, other: "ExactSum") -> None:
        """Fold another exact sum in; no rounding occurs, so order is moot."""
        for partial in other.partials:
            self.add(partial)

    @property
    def value(self) -> float:
        """Correctly rounded float of the exact sum (``-0.0`` normalised)."""
        return math.fsum(self.partials) + 0.0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExactSum):
            return self.value == other.value
        if isinstance(other, (int, float)):
            return self.value == other
        return NotImplemented


class EventOutcome(NamedTuple):
    """What happened to one event under one scheduler."""

    index: int
    event_type: EventType
    arrival_ms: float
    start_ms: float
    finish_ms: float
    display_ms: float
    qos_target_ms: float
    active_energy_mj: float
    config_label: str
    speculative: bool = False
    mispredicted: bool = False
    queue_delay_ms: float = 0.0

    @property
    def latency_ms(self) -> float:
        return self.display_ms - self.arrival_ms

    @property
    def violated(self) -> bool:
        return self.latency_ms > self.qos_target_ms + 1e-6


#: Codec tag of a :meth:`SessionResult.to_dict` payload.  A payload with any
#: other tag, or with none (the per-event row payloads of earlier builds),
#: does not decode.
SESSION_CODEC = "packed-f64le/1"
#: The float fields of :class:`EventOutcome`, in the order of their packed columns.
_PACKED_FLOATS = (
    "arrival_ms",
    "start_ms",
    "finish_ms",
    "display_ms",
    "qos_target_ms",
    "active_energy_mj",
    "queue_delay_ms",
)
#: The other fields of :class:`EventOutcome`, each stored as a JSON list.
_LISTED = ("index", "event_type", "config_label", "speculative", "mispredicted")
#: Little-endian float64, whatever the host's byte order.
_PACKED_DTYPE = np.dtype("<f8")
#: Where each packed column sits among :class:`EventOutcome`'s fields.
_LISTED_AT = tuple(EventOutcome._fields.index(name) for name in _LISTED)
_PACKED_AT = tuple(EventOutcome._fields.index(name) for name in _PACKED_FLOATS)


def _pack_outcomes(outcomes: Sequence[EventOutcome]) -> dict:
    """Outcomes as columns: JSON lists, plus every float in one base64 block.

    The block holds the :data:`_PACKED_FLOATS` columns one after another as
    little-endian float64, so each value keeps its exact bits (``-0.0`` and
    subnormals included).  Like ``json.dumps(..., allow_nan=False)``, the
    codec refuses NaN and infinity.
    """
    columns = list(zip(*outcomes)) or [()] * len(EventOutcome._fields)
    index, types, labels, speculative, mispredicted = (columns[at] for at in _LISTED_AT)
    floats = np.array([columns[at] for at in _PACKED_AT], dtype=_PACKED_DTYPE)
    if not np.isfinite(floats).all():
        raise ValueError("session outcomes hold a non-finite float, which the codec refuses")
    return {
        "index": list(index),
        # ``_value_`` is the member's value as a plain attribute (``.value`` is a property).
        "event_type": [event_type._value_ for event_type in types],
        "config_label": list(labels),
        "speculative": list(map(int, speculative)),
        "mispredicted": list(map(int, mispredicted)),
        "floats": base64.b64encode(floats.tobytes()).decode("ascii"),
    }


def _unpack_outcomes(packed: dict) -> list[EventOutcome]:
    """Inverse of :func:`_pack_outcomes`; ``ValueError`` on a malformed block."""
    listed = [packed[name] for name in _LISTED]
    n = len(listed[0])
    raw = base64.b64decode(packed["floats"], validate=True)
    if len(raw) != 8 * n * len(_PACKED_FLOATS) or any(len(column) != n for column in listed):
        raise ValueError("packed session outcomes have columns of different lengths")
    arrival, start, finish, display, qos, energy, queue = (
        np.frombuffer(raw, dtype=_PACKED_DTYPE).reshape(len(_PACKED_FLOATS), n).tolist()
    )
    index, types, labels, speculative, mispredicted = listed
    return list(
        map(
            EventOutcome,
            map(int, index),
            map(EventType, types),
            arrival,
            start,
            finish,
            display,
            qos,
            energy,
            labels,
            map(bool, speculative),
            map(bool, mispredicted),
            queue,
        )
    )


#: Field annotations of the flat numeric records, as the callables that coerce
#: a loaded JSON value back to the declared type.
_SCALARS = {"int": int, "float": float}
#: Fault counters newer than the first fault artefacts; payloads written
#: without them load as zero.  Every other record key is required.
_OPTIONAL_KEYS = frozenset({"battery_injected", "battery_recovered"})


class _FlatRecord:
    """JSON codec of a frozen dataclass whose fields are all ints and floats.

    ``to_dict`` is :func:`~dataclasses.asdict` (declaration order is the key
    order).  ``from_dict`` coerces every field to its declared type, so a
    float stored as ``5`` reloads as ``5.0`` and re-serialises to the same
    bytes.
    """

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> _FlatRecord:
        return cls(
            **{
                f.name: _SCALARS[f.type](
                    payload.get(f.name, 0) if f.name in _OPTIONAL_KEYS else payload[f.name]
                )
                for f in fields(cls)
            }
        )


@dataclass(frozen=True)
class ThermalSessionStats(_FlatRecord):
    """Per-session thermal telemetry from a dynamic-thermal engine replay.

    Only produced when the engine threads a live
    :class:`~repro.hardware.thermal.ThermalState` through the event loop
    (``thermal_mode="dynamic"``); static and thermal-free replays leave
    ``SessionResult.thermal`` as ``None``.  The latency sums/counts keep the
    raw accumulators rather than a pre-divided ratio so aggregation over
    many sessions stays exact (and fold-order independent up to float
    associativity, which the streaming aggregators already pin by folding
    in job order).
    """

    #: Hottest package temperature reached at any interval boundary.
    peak_temperature_c: float
    #: Wall-clock milliseconds during which the instantaneous cap was below
    #: the platform's top ladder frequency (the scheduler saw a shrunken
    #: configuration space).
    throttled_ms: float
    #: Session duration (last display time), the residency denominator.
    duration_ms: float
    throttled_events: int
    unthrottled_events: int
    throttled_latency_ms: float
    unthrottled_latency_ms: float

    @property
    def throttle_residency(self) -> float:
        """Fraction of the session spent under an engaged throttle, in [0, 1]."""
        if self.duration_ms <= 0:
            return 0.0
        return self.throttled_ms / self.duration_ms

    @property
    def throttle_slowdown(self) -> float:
        """Relative latency inflation of throttle-planned events.

        Mean latency of events planned while the cap was engaged over the
        mean latency of events planned at full capability, minus one.
        ``0.0`` when either population is empty (nothing to compare).
        """
        return _throttle_slowdown(
            self.throttled_events,
            self.throttled_latency_ms,
            self.unthrottled_events,
            self.unthrottled_latency_ms,
        )


def _throttle_slowdown(
    throttled_events: int,
    throttled_latency_ms: float,
    unthrottled_events: int,
    unthrottled_latency_ms: float,
) -> float:
    if throttled_events == 0 or unthrottled_events == 0:
        return 0.0
    unthrottled_mean = unthrottled_latency_ms / unthrottled_events
    if unthrottled_mean <= 0:
        return 0.0
    return throttled_latency_ms / throttled_events / unthrottled_mean - 1.0


@dataclass(frozen=True)
class ThermalAggregate(_FlatRecord):
    """Thermal metrics folded over the sessions that carried them."""

    n_sessions: int
    peak_temperature_c: float
    #: Time-weighted throttle residency over the aggregated sessions.
    throttle_residency: float
    throttle_slowdown: float


@dataclass(frozen=True)
class FaultSessionStats(_FlatRecord):
    """Per-session fault ledger from a replay with injection enabled.

    Only produced when the engine carries a live
    :class:`~repro.faults.injector.SessionFaultState`; fault-free replays
    leave ``SessionResult.faults`` as ``None``.  Counts are raw (injected
    and recovered per fault category) so aggregation over many sessions is
    exact.  *Recovered* means the fault demonstrably did not break QoS: the
    event it hit still met its deadline, or — for sensor faults — the
    corrupted reading still mapped to the true throttle cap.
    """

    predictor_injected: int = 0
    predictor_recovered: int = 0
    dvfs_injected: int = 0
    dvfs_recovered: int = 0
    sensor_injected: int = 0
    sensor_recovered: int = 0
    events_dropped: int = 0
    events_duplicated: int = 0
    events_jittered: int = 0
    stream_recovered: int = 0
    #: Distinct events the battery seam hit (sag, brown-out dwell, or an
    #: effective fuel-gauge misreport), and how many still met QoS.
    battery_injected: int = 0
    battery_recovered: int = 0
    #: Energy directly attributable to injected faults: speculative work
    #: squashed by a forced flip, failed-transition switch penalties, and
    #: the extra joules a sagging rail burned over the nominal draw.
    fault_energy_mj: float = 0.0

    @property
    def injected(self) -> int:
        """Total faults injected across categories (dropped events included)."""
        return (
            self.predictor_injected
            + self.dvfs_injected
            + self.sensor_injected
            + self.events_dropped
            + self.events_duplicated
            + self.events_jittered
            + self.battery_injected
        )

    @property
    def recovered(self) -> int:
        return (
            self.predictor_recovered
            + self.dvfs_recovered
            + self.sensor_recovered
            + self.stream_recovered
            + self.battery_recovered
        )


#: The integer counters of the fault ledger, in declaration order.
_FAULT_COUNTERS = tuple(f.name for f in fields(FaultSessionStats) if f.type == "int")


@dataclass(frozen=True, kw_only=True)
class FaultAggregate(FaultSessionStats):
    """Fault/resilience metrics folded over the sessions that carried them:
    the summed session ledger plus the session count and energy inflation."""

    n_sessions: int
    #: Fraction of total energy directly attributable to injected faults,
    #: expressed against the fault-free remainder (energy inflation).
    energy_inflation: float

    @property
    def recovery_rate(self) -> float:
        """Recovered over injected, dropped events counting as unrecoverable."""
        if self.injected == 0:
            return 0.0
        return self.recovered / self.injected

    def to_dict(self) -> dict:
        # Artefact payloads lead with n_sessions; key order is part of their bytes.
        return {"n_sessions": self.n_sessions, **asdict(self)}


@dataclass
class SessionResult:
    """Result of replaying one trace under one scheduler."""

    app_name: str
    scheduler_name: str
    outcomes: list[EventOutcome] = field(default_factory=list)
    idle_energy_mj: float = 0.0
    wasted_energy_mj: float = 0.0
    wasted_time_ms: float = 0.0
    mispredictions: int = 0
    commits: int = 0
    predictions_made: int = 0
    prediction_rounds: int = 0
    pfb_size_history: list[tuple[float, int]] = field(default_factory=list)
    duration_ms: float = 0.0
    #: Thermal telemetry when the replay tracked live thermal state.
    thermal: ThermalSessionStats | None = None
    #: Fault ledger when the replay ran with injection enabled.
    faults: FaultSessionStats | None = None

    # -- energy ------------------------------------------------------------------

    @property
    def active_energy_mj(self) -> float:
        # repro: allow[SUM-EXACT] — per-session sum in fixed event order; never crosses a shard boundary
        return sum(o.active_energy_mj for o in self.outcomes)

    @property
    def total_energy_mj(self) -> float:
        """Everything the processor consumed: useful work, wasted work, idle."""
        return self.active_energy_mj + self.wasted_energy_mj + self.idle_energy_mj

    # -- QoS ----------------------------------------------------------------------

    @property
    def n_events(self) -> int:
        return len(self.outcomes)

    @property
    def violations(self) -> int:
        return sum(1 for o in self.outcomes if o.violated)

    @property
    def qos_violation_rate(self) -> float:
        if not self.outcomes:
            return 0.0
        return self.violations / len(self.outcomes)

    @property
    def mean_latency_ms(self) -> float:
        if not self.outcomes:
            return 0.0
        # repro: allow[SUM-EXACT] — per-session mean in fixed event order; never crosses a shard boundary
        return sum(o.latency_ms for o in self.outcomes) / len(self.outcomes)

    # -- speculation --------------------------------------------------------------

    @property
    def prediction_accuracy(self) -> float:
        """Fraction of validated predictions that matched the actual event."""
        validated = self.commits + self.mispredictions
        if validated == 0:
            return 0.0
        return self.commits / validated

    # -- serialisation ------------------------------------------------------------

    def to_dict(self) -> dict:
        """The session's shard payload in the packed exact codec.

        The payload leads with ``"codec": SESSION_CODEC``.  Session-level
        fields stay plain JSON (``repr``-exact floats); the outcomes are
        columns (see :func:`_pack_outcomes`), with their floats as base64
        little-endian float64.  Every float therefore survives the JSON
        round trip bit for bit, so restored sessions fold into the same
        aggregates as the originals: the property the
        :class:`~repro.scenarios.checkpoint.ShardJournal` resume path rests
        on.  A non-finite float raises ``ValueError``.
        """
        return {
            "codec": SESSION_CODEC,
            "app_name": self.app_name,
            "scheduler_name": self.scheduler_name,
            "outcomes": _pack_outcomes(self.outcomes),
            "idle_energy_mj": self.idle_energy_mj,
            "wasted_energy_mj": self.wasted_energy_mj,
            "wasted_time_ms": self.wasted_time_ms,
            "mispredictions": self.mispredictions,
            "commits": self.commits,
            "predictions_made": self.predictions_made,
            "prediction_rounds": self.prediction_rounds,
            "pfb_size_history": [[at_ms, size] for at_ms, size in self.pfb_size_history],
            "duration_ms": self.duration_ms,
            "thermal": None if self.thermal is None else self.thermal.to_dict(),
            "faults": None if self.faults is None else self.faults.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SessionResult":
        """Decode a :meth:`to_dict` payload.

        A payload of another codec raises ``ValueError`` naming its tag; a
        malformed one raises ``KeyError``, ``TypeError`` or ``ValueError``.
        """
        codec = payload.get("codec")
        if codec != SESSION_CODEC:
            raise ValueError(f"session payload codec {codec!r} is not {SESSION_CODEC!r}")
        thermal = payload.get("thermal")
        faults = payload.get("faults")
        return cls(
            app_name=str(payload["app_name"]),
            scheduler_name=str(payload["scheduler_name"]),
            outcomes=_unpack_outcomes(payload["outcomes"]),
            idle_energy_mj=float(payload["idle_energy_mj"]),
            wasted_energy_mj=float(payload["wasted_energy_mj"]),
            wasted_time_ms=float(payload["wasted_time_ms"]),
            mispredictions=int(payload["mispredictions"]),
            commits=int(payload["commits"]),
            predictions_made=int(payload["predictions_made"]),
            prediction_rounds=int(payload["prediction_rounds"]),
            pfb_size_history=[
                (float(at_ms), int(size)) for at_ms, size in payload["pfb_size_history"]
            ],
            duration_ms=float(payload["duration_ms"]),
            thermal=None if thermal is None else ThermalSessionStats.from_dict(thermal),
            faults=None if faults is None else FaultSessionStats.from_dict(faults),
        )


@dataclass(frozen=True)
class AggregateMetrics:
    """Metrics aggregated over several sessions (e.g. all traces of one app)."""

    scheduler_name: str
    n_sessions: int
    n_events: int
    total_energy_mj: float
    qos_violation_rate: float
    mean_latency_ms: float
    wasted_energy_mj: float
    wasted_time_ms: float
    mispredictions: int
    commits: int

    @property
    def prediction_accuracy(self) -> float:
        validated = self.commits + self.mispredictions
        if validated == 0:
            return 0.0
        return self.commits / validated


@dataclass
class StreamingAggregator:
    """Incrementally folds :class:`SessionResult`\\ s into running totals.

    The parallel evaluation engine feeds results into an aggregator as
    workers deliver them, so a sweep over thousands of sessions never has to
    hold every ``SessionResult`` in memory at once.  Beyond what
    :meth:`finalize` reports, it sums PES's speculation counters,
    ``predictions_made`` and ``prediction_rounds``, whose ratio is the
    prediction degree of Fig. 14.

    :meth:`merge` is the one fold body: :meth:`add` merges the one-session
    fold of its result.  Merging is a first-class, order-independent
    operation: every float accumulator is an :class:`ExactSum`, so merging
    per-shard partial folds is **bit-identical** to a single sequential fold
    *regardless of where the shard boundaries fall*.  This is the contract
    the fleet layer (and any future multi-host sharding) is built on,
    pinned by a hypothesis property test over random shard splits.
    """

    scheduler_name: str | None = None
    n_sessions: int = 0
    n_events: int = 0
    violations: int = 0
    mispredictions: int = 0
    commits: int = 0
    # PES's speculation counters (Fig. 14's prediction degree is their ratio).
    predictions_made: int = 0
    prediction_rounds: int = 0
    # Thermal accumulators; only sessions carrying ThermalSessionStats fold
    # into these, so a mixed static/dynamic sweep aggregates each cleanly.
    thermal_sessions: int = 0
    thermal_peak_c: float = 0.0
    thermal_throttled_events: int = 0
    thermal_unthrottled_events: int = 0
    # Fault accumulators; only sessions carrying FaultSessionStats fold into
    # these, so mixed faulted/fault-free sweeps aggregate each cleanly.  The
    # ledger counts every FaultSessionStats counter under its field name.
    fault_sessions: int = 0
    _fault_counts: Counter = field(default_factory=Counter, repr=False)
    # Float accumulators: exact sums so merge order / shard boundaries can
    # never drift the totals (max over peaks is associative already).
    _total_latency_ms: ExactSum = field(default_factory=ExactSum, repr=False)
    _total_energy_mj: ExactSum = field(default_factory=ExactSum, repr=False)
    _wasted_energy_mj: ExactSum = field(default_factory=ExactSum, repr=False)
    _wasted_time_ms: ExactSum = field(default_factory=ExactSum, repr=False)
    _thermal_throttled_ms: ExactSum = field(default_factory=ExactSum, repr=False)
    _thermal_duration_ms: ExactSum = field(default_factory=ExactSum, repr=False)
    _thermal_throttled_latency_ms: ExactSum = field(default_factory=ExactSum, repr=False)
    _thermal_unthrottled_latency_ms: ExactSum = field(default_factory=ExactSum, repr=False)
    _fault_energy_mj: ExactSum = field(default_factory=ExactSum, repr=False)

    # Correctly rounded float views of the exact accumulators, under the
    # names the rest of the codebase (and artefact payloads) always used.

    @property
    def total_latency_ms(self) -> float:
        return self._total_latency_ms.value

    @property
    def total_energy_mj(self) -> float:
        return self._total_energy_mj.value

    @property
    def wasted_energy_mj(self) -> float:
        return self._wasted_energy_mj.value

    @property
    def wasted_time_ms(self) -> float:
        return self._wasted_time_ms.value

    @property
    def thermal_throttled_ms(self) -> float:
        return self._thermal_throttled_ms.value

    @property
    def thermal_duration_ms(self) -> float:
        return self._thermal_duration_ms.value

    @property
    def thermal_throttled_latency_ms(self) -> float:
        return self._thermal_throttled_latency_ms.value

    @property
    def thermal_unthrottled_latency_ms(self) -> float:
        return self._thermal_unthrottled_latency_ms.value

    @property
    def fault_energy_mj(self) -> float:
        return self._fault_energy_mj.value

    def add(self, result: SessionResult) -> None:
        """Fold one session into the running totals."""
        self.merge(_session_fold(result))

    def merge(self, other: "StreamingAggregator") -> None:
        """Fold another aggregator's totals into this one.

        Bit-identical to having folded ``other``'s sessions directly after
        this aggregator's own, for any split of sessions between the two:
        the exact-sum accumulators carry the full-precision sum, so neither
        fold order nor shard boundaries can perturb the rounded totals.
        """
        if other.scheduler_name is None:
            return
        if self.scheduler_name is None:
            self.scheduler_name = other.scheduler_name
        elif other.scheduler_name != self.scheduler_name:
            raise ValueError(
                "cannot aggregate results from different schedulers: "
                f"{sorted({self.scheduler_name, other.scheduler_name})}"
            )
        self.n_sessions += other.n_sessions
        self.n_events += other.n_events
        self.violations += other.violations
        self._total_latency_ms.merge(other._total_latency_ms)
        self._total_energy_mj.merge(other._total_energy_mj)
        self._wasted_energy_mj.merge(other._wasted_energy_mj)
        self._wasted_time_ms.merge(other._wasted_time_ms)
        self.mispredictions += other.mispredictions
        self.commits += other.commits
        self.predictions_made += other.predictions_made
        self.prediction_rounds += other.prediction_rounds
        if other.thermal_sessions:
            if self.thermal_sessions == 0 or other.thermal_peak_c > self.thermal_peak_c:
                self.thermal_peak_c = other.thermal_peak_c
            self.thermal_sessions += other.thermal_sessions
            self._thermal_throttled_ms.merge(other._thermal_throttled_ms)
            self._thermal_duration_ms.merge(other._thermal_duration_ms)
            self.thermal_throttled_events += other.thermal_throttled_events
            self.thermal_unthrottled_events += other.thermal_unthrottled_events
            self._thermal_throttled_latency_ms.merge(other._thermal_throttled_latency_ms)
            self._thermal_unthrottled_latency_ms.merge(other._thermal_unthrottled_latency_ms)
        if other.fault_sessions:
            self.fault_sessions += other.fault_sessions
            self._fault_counts.update(other._fault_counts)
            self._fault_energy_mj.merge(other._fault_energy_mj)

    def finalize_thermal(self) -> ThermalAggregate | None:
        """Thermal aggregate of the folded sessions, ``None`` when untracked."""
        if self.thermal_sessions == 0:
            return None
        residency = (
            self.thermal_throttled_ms / self.thermal_duration_ms
            if self.thermal_duration_ms > 0
            else 0.0
        )
        return ThermalAggregate(
            n_sessions=self.thermal_sessions,
            peak_temperature_c=self.thermal_peak_c,
            throttle_residency=residency,
            throttle_slowdown=_throttle_slowdown(
                self.thermal_throttled_events,
                self.thermal_throttled_latency_ms,
                self.thermal_unthrottled_events,
                self.thermal_unthrottled_latency_ms,
            ),
        )

    def finalize_faults(self) -> FaultAggregate | None:
        """Fault aggregate of the folded sessions, ``None`` when untracked.

        ``energy_inflation`` compares fault-attributable energy to the
        fault-free remainder, i.e. how much extra the injected faults cost
        relative to the energy the same run would otherwise have spent.
        """
        if self.fault_sessions == 0:
            return None
        clean_energy = self.total_energy_mj - self.fault_energy_mj
        inflation = self.fault_energy_mj / clean_energy if clean_energy > 0 else 0.0
        return FaultAggregate(
            n_sessions=self.fault_sessions,
            **{name: self._fault_counts[name] for name in _FAULT_COUNTERS},
            fault_energy_mj=self.fault_energy_mj,
            energy_inflation=inflation,
        )

    def finalize(self) -> AggregateMetrics:
        if self.scheduler_name is None or self.n_sessions == 0:
            raise ValueError("cannot aggregate an empty result list")
        return AggregateMetrics(
            scheduler_name=self.scheduler_name,
            n_sessions=self.n_sessions,
            n_events=self.n_events,
            total_energy_mj=self.total_energy_mj,
            qos_violation_rate=(self.violations / self.n_events) if self.n_events else 0.0,
            mean_latency_ms=(self.total_latency_ms / self.n_events) if self.n_events else 0.0,
            wasted_energy_mj=self.wasted_energy_mj,
            wasted_time_ms=self.wasted_time_ms,
            mispredictions=self.mispredictions,
            commits=self.commits,
        )


def _session_fold(result: SessionResult) -> StreamingAggregator:
    """The fold of the single session ``result``, ready to :meth:`merge`."""
    fold = StreamingAggregator(
        scheduler_name=result.scheduler_name,
        n_sessions=1,
        n_events=result.n_events,
        violations=result.violations,
        mispredictions=result.mispredictions,
        commits=result.commits,
        predictions_made=result.predictions_made,
        prediction_rounds=result.prediction_rounds,
        _total_latency_ms=ExactSum(o.latency_ms for o in result.outcomes),
        _total_energy_mj=ExactSum((result.total_energy_mj,)),
        _wasted_energy_mj=ExactSum((result.wasted_energy_mj,)),
        _wasted_time_ms=ExactSum((result.wasted_time_ms,)),
    )
    stats = result.thermal
    if stats is not None:
        fold.thermal_sessions = 1
        fold.thermal_peak_c = stats.peak_temperature_c
        fold.thermal_throttled_events = stats.throttled_events
        fold.thermal_unthrottled_events = stats.unthrottled_events
        fold._thermal_throttled_ms.add(stats.throttled_ms)
        fold._thermal_duration_ms.add(stats.duration_ms)
        fold._thermal_throttled_latency_ms.add(stats.throttled_latency_ms)
        fold._thermal_unthrottled_latency_ms.add(stats.unthrottled_latency_ms)
    faults = result.faults
    if faults is not None:
        fold.fault_sessions = 1
        fold._fault_counts.update({name: getattr(faults, name) for name in _FAULT_COUNTERS})
        fold._fault_energy_mj.add(faults.fault_energy_mj)
    return fold


class FinishedSession(NamedTuple):
    """A replayed session as its consumers take it, made once where it finished.

    Pool workers ship this instead of the :class:`SessionResult`, so the
    parent only merges ``fold`` and appends ``payload``.
    """

    #: The session's one-session fold (:func:`_session_fold`).
    fold: StreamingAggregator
    app_name: str
    #: The JSON text of its shard payload (:func:`encode_session`), when the
    #: run journals.
    payload: str | None = None


def encode_session(result: SessionResult) -> str:
    """The JSON text of a session's shard payload (``ValueError`` on NaN/inf)."""
    return json.dumps(result.to_dict(), allow_nan=False)


def finish_session(result: SessionResult, *, encode: bool) -> FinishedSession:
    """Fold ``result`` (and encode it when ``encode``): the one fold it ever gets."""
    return FinishedSession(
        fold=_session_fold(result),
        app_name=result.app_name,
        payload=encode_session(result) if encode else None,
    )


def restore_session(payload: dict) -> FinishedSession | None:
    """Fold a journaled shard payload back, or ``None`` if it does not decode.

    A payload that is not a session of :data:`SESSION_CODEC` (a record of an
    earlier build's codec, say) is stale, like a record of a changed spec:
    the caller drops it and the session is simulated again.
    """
    try:
        result = SessionResult.from_dict(payload)
    except (KeyError, TypeError, ValueError):
        return None
    return FinishedSession(fold=_session_fold(result), app_name=result.app_name)


@dataclass(frozen=True)
class SchemeAggregates:
    """Streamed aggregates of one scheme's sweep.

    ``thermal`` carries the folded dynamic-thermal telemetry (peak
    temperature, throttle residency, throttle slowdown) and is ``None``
    whenever the sweep's sessions did not track live thermal state —
    static-thermal and thermal-free runs keep their aggregate shape (and
    serialised artefacts) unchanged.  ``faults`` likewise carries the folded
    resilience metrics and is ``None`` for fault-free sweeps.
    """

    overall: AggregateMetrics
    per_app: dict[str, AggregateMetrics]
    thermal: ThermalAggregate | None = None
    faults: FaultAggregate | None = None


@dataclass
class StreamingSweepAggregator:
    """Streaming overall + per-application aggregation for one scheme."""

    overall: StreamingAggregator = field(default_factory=StreamingAggregator)
    per_app: dict[str, StreamingAggregator] = field(default_factory=dict)

    def add(self, fold: StreamingAggregator, app_name: str) -> None:
        """Merge one session's fold; one fold serves both levels, as ``merge``
        only reads its argument."""
        self.overall.merge(fold)
        per_app = self.per_app.get(app_name)
        if per_app is None:
            per_app = self.per_app[app_name] = StreamingAggregator()
        per_app.merge(fold)

    def finalize(self) -> SchemeAggregates:
        """The scheme's aggregates: overall, per app (in first-fold order),
        thermal and faults."""
        return SchemeAggregates(
            overall=self.overall.finalize(),
            per_app={app: agg.finalize() for app, agg in self.per_app.items()},
            thermal=self.overall.finalize_thermal(),
            faults=self.overall.finalize_faults(),
        )


@dataclass
class StreamingMatrixAggregator:
    """Streaming aggregation over (scenario key, scheme) cells.

    The scenario matrix fans jobs from *several* sweeps through one pool;
    this merges each delivered session's fold into ``cells[key][scheme]`` so
    a matrix over thousands of sessions never materialises per-cell result
    lists.  Cells appear in merge order, and the exact-sum accumulators make
    every total bit-identical to a serial fold.
    """

    cells: dict[str, dict[str, StreamingSweepAggregator]] = field(default_factory=dict)

    def add(self, key: str, scheme: str, fold: StreamingAggregator, app_name: str) -> None:
        row = self.cells.setdefault(key, {})
        cell = row.get(scheme)
        if cell is None:
            cell = row[scheme] = StreamingSweepAggregator()
        cell.add(fold, app_name)


def normalised_energy_by_app(
    aggregates: Mapping[str, SchemeAggregates], baseline: str = "Interactive"
) -> dict[str, dict[str, float]]:
    """Per-app energy of every scheme normalised to ``baseline`` (Fig. 11).

    ``aggregates`` maps each scheme to its sweep's aggregates (as
    :meth:`~repro.runtime.parallel.ParallelEvaluator.compare` returns them).
    Applications whose baseline energy is not positive cannot be
    normalised; they are dropped from the result with a ``UserWarning``
    (a silent drop made Fig. 11 rows disappear without explanation).
    """
    if baseline not in aggregates:
        raise KeyError(f"baseline scheme {baseline!r} missing from results")
    baseline_per_app = aggregates[baseline].per_app
    normalised: dict[str, dict[str, float]] = {}
    dropped: set[str] = set()
    for scheme, scheme_aggregates in aggregates.items():
        normalised[scheme] = {}
        for app, metrics in scheme_aggregates.per_app.items():
            base = baseline_per_app.get(app)
            if base is None or base.total_energy_mj <= 0:
                dropped.add(app)
                continue
            normalised[scheme][app] = metrics.total_energy_mj / base.total_energy_mj
    if dropped:
        warnings.warn(
            f"dropping {sorted(dropped)} from normalised energy: "
            f"no positive {baseline!r} baseline energy to normalise against",
            stacklevel=2,
        )
    return normalised
