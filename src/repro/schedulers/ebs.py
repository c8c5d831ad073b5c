"""EBS — the Event-Based Scheduler of Zhu et al. (reactive, QoS-aware).

Before executing an event, EBS predicts the optimal ACMP configuration that
meets the event's QoS target with the minimum energy, using the calibrated
DVFS latency model (Eqn. 1) and the offline power table.  It is the
strongest reactive baseline in the paper: it exploits per-event latency
slack but, because it schedules events one at a time only after they have
been triggered, it can neither recover the time lost to interference from
previous events (Type II) nor avoid over-provisioning events that were
delayed by interference (Type III).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.dvfs import DvfsModel
from repro.schedulers.base import EventContext, ExecutionPlan, ReactiveScheduler
from repro.webapp.events import EventType


@dataclass
class EbsScheduler(ReactiveScheduler):
    """Per-event minimum-energy configuration under the event's QoS target.

    Like the original system, EBS does not know an event's workload before
    running it: it *predicts* the workload from the calibrated per-event
    model.  The first ``calibration_runs`` occurrences of an event type use
    the measured workload (the paper measures an event under two different
    frequencies the first two times it is encountered to solve Eqn. 1);
    afterwards the scheduler plans against the running average of what it
    has observed for that type.

    ``safety_margin_ms`` reserves a small amount of the budget for the
    rendering hand-off and VSync quantisation so a configuration that lands
    exactly on the deadline is not selected.
    """

    safety_margin_ms: float = 8.0
    calibration_runs: int = 2
    #: Inflation applied to the predicted workload when planning.  Event
    #: workloads are long-tailed, so planning for the bare running average
    #: would under-provision every heavier-than-average event; the paper's
    #: EBS similarly provisions conservatively against its latency model.
    workload_safety_factor: float = 1.3
    name: str = field(default="EBS", init=False)
    _sum_tmem: dict[EventType, float] = field(default_factory=dict, repr=False, init=False)
    _sum_ndep: dict[EventType, float] = field(default_factory=dict, repr=False, init=False)
    _count: dict[EventType, int] = field(default_factory=dict, repr=False, init=False)

    def __post_init__(self) -> None:
        # Negated comparisons, so that NaN fails them too.
        if not self.safety_margin_ms >= 0:
            raise ValueError("safety_margin_ms must be non-negative")
        if self.calibration_runs < 0:
            raise ValueError("calibration_runs must be non-negative")
        if not self.workload_safety_factor >= 1.0:
            raise ValueError("workload_safety_factor must be >= 1")

    # -- workload calibration -------------------------------------------------

    def _predict_workload(self, ctx: EventContext) -> DvfsModel:
        event_type = ctx.event.event_type
        count = self._count.get(event_type, 0)
        if count < self.calibration_runs or count == 0:
            # Calibration phase: the event's latency is being measured, so the
            # scheduler effectively knows its true cost.
            return ctx.event.workload
        return DvfsModel(
            tmem_ms=self._sum_tmem[event_type] / count * self.workload_safety_factor,
            ndep_mcycles=self._sum_ndep[event_type] / count * self.workload_safety_factor,
        )

    def _record(self, ctx: EventContext) -> None:
        event_type = ctx.event.event_type
        workload = ctx.event.workload
        self._sum_tmem[event_type] = self._sum_tmem.get(event_type, 0.0) + workload.tmem_ms
        self._sum_ndep[event_type] = self._sum_ndep.get(event_type, 0.0) + workload.ndep_mcycles
        self._count[event_type] = self._count.get(event_type, 0) + 1

    def reset(self) -> None:
        self._sum_tmem.clear()
        self._sum_ndep.clear()
        self._count.clear()

    # -- scheduling -------------------------------------------------------------

    def plan(self, ctx: EventContext) -> ExecutionPlan:
        """The minimum-``(energy, latency)`` configuration whose latency fits the budget.

        When none fits (a Type I event, or the budget was eaten by
        interference) EBS falls back to the minimum-``(latency, energy)``
        configuration to minimise the violation.  One pass over the priced
        operating points, with the floats of :func:`enumerate_options`.
        """
        predicted_workload = self._predict_workload(ctx)
        self._record(ctx)
        tmem, ndep = predicted_workload.tmem_ms, predicted_workload.ndep_mcycles
        budget = ctx.remaining_budget_ms - self.safety_margin_ms
        # (key, config) pairs; a strict ``<`` keeps the earliest point on ties.
        best = fastest = None
        for config, effective_ghz, power_w in ctx.power_table.priced_points(ctx.system):
            latency_ms = tmem + ndep / effective_ghz
            energy_mj = power_w * latency_ms
            if latency_ms <= budget and (best is None or (energy_mj, latency_ms) < best[0]):
                best = ((energy_mj, latency_ms), config)
            if fastest is None or (latency_ms, energy_mj) < fastest[0]:
                fastest = ((latency_ms, energy_mj), config)
        return ExecutionPlan.single((best or fastest)[1])
