"""Global optimizer: builds and solves the speculative scheduling window.

Upon receiving the predicted event sequence, the optimizer computes the
speculative schedule: one ACMP configuration per predicted event,
minimising total energy under every event's QoS deadline (Sec. 5.3).

The window holds predicted events only.  The paper's formulation also
admits outstanding events (arrived, not yet executed), but none exists when
a round opens: the proactive engine opens a round only after the event that
arrived has run (committed from the previous round, or executed reactively
by the EBS fallback) and only once the previous round has drained, so every
event that has arrived is already scheduled.

Two estimators feed the formulation for *predicted* events, whose concrete
workload and arrival time are not yet known:

* :class:`WorkloadEstimator` — per-event-type calibration of the DVFS model
  from previously executed events (the paper measures each event the first
  two times it is encountered; here every completed execution updates a
  running per-type average, seeded from the application's typical
  workload).
* :class:`ArrivalEstimator` — per-interaction running average of the user's
  inter-arrival gaps, scaled by a conservatism factor so the schedule stays
  deadline-safe when the user acts faster than their average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.optimizer.ilp import BranchAndBoundSolver
from repro.core.optimizer.schedule import EventSpec, Schedule
from repro.core.predictor.sequence_learner import PredictedEvent
from repro.hardware.acmp import AcmpSystem
from repro.hardware.dvfs import DvfsModel
from repro.hardware.power import PowerTable
from repro.schedulers.base import enumerate_options
from repro.traces.trace import TraceEvent
from repro.traces.workload import WorkloadModel
from repro.webapp.apps import AppProfile
from repro.webapp.events import EventType, Interaction, interaction_of, qos_target_ms
from repro.webapp.rendering import planning_deadline_ms


@dataclass
class WorkloadEstimator:
    """Running per-event-type estimate of the DVFS workload parameters."""

    profile: AppProfile
    _model: WorkloadModel = field(init=False)
    _sum_tmem: dict[EventType, float] = field(default_factory=dict)
    _sum_ndep: dict[EventType, float] = field(default_factory=dict)
    _count: dict[EventType, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._model = WorkloadModel(self.profile)

    def record(self, event_type: EventType, workload: DvfsModel) -> None:
        """Record the measured workload of a completed event."""
        self._sum_tmem[event_type] = self._sum_tmem.get(event_type, 0.0) + workload.tmem_ms
        self._sum_ndep[event_type] = self._sum_ndep.get(event_type, 0.0) + workload.ndep_mcycles
        self._count[event_type] = self._count.get(event_type, 0) + 1

    def estimate(self, event_type: EventType) -> DvfsModel:
        """Expected workload for the next event of this type."""
        count = self._count.get(event_type, 0)
        if count == 0:
            return self._model.typical(event_type)
        return DvfsModel(
            tmem_ms=self._sum_tmem[event_type] / count,
            ndep_mcycles=self._sum_ndep[event_type] / count,
        )

    def reset(self) -> None:
        """Forget every recorded measurement (new session)."""
        self._sum_tmem.clear()
        self._sum_ndep.clear()
        self._count.clear()


@dataclass
class ArrivalEstimator:
    """Running estimate of user inter-arrival gaps per interaction class.

    The estimate used for deadlines is deliberately pessimistic: a low
    quantile of the gaps observed so far (per interaction class), scaled by
    ``conservatism``.  User think times are long-tailed and bi-modal (slow
    deliberate interactions mixed with rapid bursts), so planning against a
    mean would let speculative frames finish after a burst's next input has
    already arrived; planning against a low quantile keeps the speculative
    schedule deadline-safe at the cost of a slightly less aggressive energy
    optimisation.
    """

    conservatism: float = 0.8
    quantile: float = 0.25
    max_samples: int = 200
    initial_gap_ms: dict[Interaction, float] = field(
        default_factory=lambda: {
            Interaction.LOAD: 2500.0,
            Interaction.TAP: 900.0,
            Interaction.MOVE: 300.0,
        }
    )
    _gaps: dict[Interaction, list[float]] = field(default_factory=dict)
    _last_arrival_ms: float | None = None
    _last_interaction: Interaction | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.conservatism <= 1.0:
            raise ValueError("conservatism must be in (0, 1]")
        if not 0.0 < self.quantile <= 0.5:
            raise ValueError("quantile must be in (0, 0.5]")
        if self.max_samples <= 0:
            raise ValueError("max_samples must be positive")

    def record_arrival(self, event_type: EventType, arrival_ms: float) -> None:
        """Record an actual event arrival to refine the gap estimates."""
        interaction = interaction_of(event_type)
        if self._last_arrival_ms is not None and arrival_ms >= self._last_arrival_ms:
            gaps = self._gaps.setdefault(interaction, [])
            gaps.append(arrival_ms - self._last_arrival_ms)
            if len(gaps) > self.max_samples:
                del gaps[0]
        self._last_arrival_ms = arrival_ms
        self._last_interaction = interaction

    def reset(self) -> None:
        """Forget every observed gap (new session)."""
        self._gaps.clear()
        self._last_arrival_ms = None
        self._last_interaction = None

    def expected_gap_ms(self, event_type: EventType) -> float:
        """Pessimistic estimate of the gap before an event of this type."""
        interaction = interaction_of(event_type)
        gaps = self._gaps.get(interaction)
        if not gaps:
            estimate = self.initial_gap_ms[interaction]
        else:
            estimate = linear_quantile(sorted(gaps), self.quantile)
        return self.conservatism * estimate


def linear_quantile(ordered: list[float], q: float) -> float:
    """``float(np.quantile(ordered, q))`` for a sorted, non-empty, NaN-free list.

    numpy's default ``linear`` method in plain Python, bit for bit: the
    virtual index is ``(n - 1) * q`` and the two neighbours are blended
    with numpy's ``_lerp``, which interpolates from the upper neighbour
    once the weight reaches one half.  A windowed list of a few hundred
    gaps costs far less this way than converting it to an array.
    """
    position = (len(ordered) - 1) * q
    below = math.floor(position)
    if below >= len(ordered) - 1:
        return ordered[-1]
    gamma = position - below
    low, high = ordered[below], ordered[below + 1]
    diff = high - low
    if gamma >= 0.5:
        return high - diff * (1 - gamma)
    return low + diff * gamma


@dataclass
class GlobalOptimizer:
    """Formulates and solves the energy/QoS scheduling window (Eqn. 2–5)."""

    system: AcmpSystem
    power_table: PowerTable
    workload_estimator: WorkloadEstimator
    arrival_estimator: ArrivalEstimator = field(default_factory=ArrivalEstimator)
    #: Per event type, ``(platform, tmem_ms, ndep_mcycles, options)`` of the
    #: last predicted event of that type; see :meth:`build_specs`.
    _option_slots: dict[EventType, tuple] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # -- spec construction -------------------------------------------------------

    def build_specs(
        self,
        now_ms: float,
        predicted: list[PredictedEvent],
        *,
        system: AcmpSystem | None = None,
    ) -> list[EventSpec]:
        """The scheduling window of the predicted events.

        Predicted events are released immediately (that is the proactive
        part) and get the planning deadlines (:func:`planning_deadline_ms`)
        of conservatively estimated arrival times.

        ``system`` overrides the platform the window's options are
        enumerated over — the dynamic thermal engine passes the throttled
        platform of the moment so the solver only branches over operating
        points the governor would actually admit.  ``None`` keeps the
        optimizer's own (session-constant) platform.

        A predicted event reuses the options of the previous predicted event
        of its type while the workload estimate's ``(tmem_ms, ndep_mcycles)``
        values and the platform object are unchanged: one slot per event
        type.  The running mean moves after every executed event of the
        type, and :meth:`WorkloadEstimator.reset` brings back the typical
        workload, so the slot compares values, not a count.  The estimates
        are means of non-negative sums that start at ``0.0``, or typical
        workloads, so they are never ``-0.0`` and equal values have equal
        bits.
        """
        specs: list[EventSpec] = []
        predicted_arrival = now_ms
        for position, prediction in enumerate(predicted):
            predicted_arrival += self.arrival_estimator.expected_gap_ms(prediction.event_type)
            deadline = predicted_arrival + qos_target_ms(prediction.event_type)
            specs.append(
                EventSpec(
                    label=f"predicted-{position}-{prediction.event_type.value}",
                    release_ms=now_ms,
                    deadline_ms=planning_deadline_ms(deadline, now_ms),
                    options=self._predicted_options(prediction.event_type, system),
                )
            )
        return specs

    def _predicted_options(self, event_type: EventType, system: AcmpSystem | None):
        """Options for the estimated workload of ``event_type``, reused from its slot."""
        workload = self.workload_estimator.estimate(event_type)
        platform = system if system is not None else self.system
        slot = self._option_slots.get(event_type)
        if (
            slot is None
            or slot[0] is not platform
            or slot[1] != workload.tmem_ms
            or slot[2] != workload.ndep_mcycles
        ):
            options = tuple(enumerate_options(platform, self.power_table, workload, pareto_only=True))
            slot = (platform, workload.tmem_ms, workload.ndep_mcycles, options)
            self._option_slots[event_type] = slot
        return slot[3]

    # -- solving ------------------------------------------------------------------

    def solve(self, specs: list[EventSpec], now_ms: float) -> Schedule:
        return BranchAndBoundSolver().solve(specs, now_ms)

    def compute_schedule(
        self,
        now_ms: float,
        outstanding: list[TraceEvent],
        predicted: list[PredictedEvent],
        *,
        system: AcmpSystem | None = None,
    ) -> Schedule:
        """End-to-end: build the window of the predicted events and solve it.

        ``outstanding`` must be empty: no event is outstanding when a round
        opens (see the module docstring).  The parameter stays because
        perfbench's tracer (``perfbench/tracing.py``) counts a window's
        events from this call's ``outstanding`` and ``predicted`` arguments.
        ``system`` optionally narrows the window to a (thermally) capped
        platform; see :meth:`build_specs`.
        """
        if outstanding:
            raise ValueError("a PES window plans predicted events only; no event is outstanding")
        return self.solve(self.build_specs(now_ms, predicted, system=system), now_ms)
