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

from repro.hardware.acmp import AcmpConfig
from repro.schedulers.base import EventContext, ExecutionPlan, ReactiveScheduler
from repro.webapp.events import EventType
from repro.webapp.rendering import PLANNING_MARGIN_MS


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

    The budget keeps :data:`~repro.webapp.rendering.PLANNING_MARGIN_MS` in
    reserve for the rendering hand-off and VSync quantisation, so a
    configuration that lands exactly on the deadline is not selected.
    """

    calibration_runs: int = 2
    #: Inflation applied to the predicted workload when planning.  Event
    #: workloads are long-tailed, so planning for the bare running average
    #: would under-provision every heavier-than-average event; the paper's
    #: EBS similarly provisions conservatively against its latency model.
    workload_safety_factor: float = 1.3
    name: str = field(default="EBS", init=False)
    #: Per event type, ``[sum of Tmem, sum of Ndep, count]`` of the workloads
    #: seen this session.
    _seen: dict[EventType, list] = field(default_factory=dict, repr=False, init=False)
    #: One immutable single-phase plan per configuration, reused across events
    #: and sessions (a plan is a pure function of its configuration).
    _plans: dict[AcmpConfig, ExecutionPlan] = field(
        default_factory=dict, repr=False, init=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.calibration_runs < 0:
            raise ValueError("calibration_runs must be non-negative")
        # Negated, so that NaN fails it too.
        if not self.workload_safety_factor >= 1.0:
            raise ValueError("workload_safety_factor must be >= 1")

    def reset(self) -> None:
        self._seen.clear()

    # -- scheduling -------------------------------------------------------------

    def plan(self, ctx: EventContext) -> ExecutionPlan:
        """The minimum-``(energy, latency)`` configuration whose latency fits the budget.

        When none fits (a Type I event, or the budget was eaten by
        interference) EBS falls back to the minimum-``(latency, energy)``
        configuration to minimise the violation.  One pass over the priced
        operating points, with the floats of :func:`enumerate_options`.

        The workload planned for is the event's own while its type is being
        calibrated (the first ``calibration_runs`` occurrences), then the
        inflated running average of the type's workloads, as plain floats.
        """
        event = ctx.event
        workload = event.workload
        seen = self._seen.get(event.event_type)
        if seen is None or seen[2] < self.calibration_runs:
            # Calibration phase: the event's latency is being measured, so the
            # scheduler effectively knows its true cost.
            tmem, ndep = workload.tmem_ms, workload.ndep_mcycles
        else:
            count = seen[2]
            tmem = seen[0] / count * self.workload_safety_factor
            ndep = seen[1] / count * self.workload_safety_factor
            # DvfsModel's checks, negated so that NaN fails them too.
            if not tmem >= 0:
                raise ValueError("predicted tmem_ms must be non-negative")
            if not ndep >= 0:
                raise ValueError("predicted ndep_mcycles must be non-negative")
        if seen is None:
            self._seen[event.event_type] = [0.0 + workload.tmem_ms, 0.0 + workload.ndep_mcycles, 1]
        else:
            seen[0] += workload.tmem_ms
            seen[1] += workload.ndep_mcycles
            seen[2] += 1
        # Not planning_deadline_ms: (deadline - margin) - start can differ in the last bit.
        budget = ctx.remaining_budget_ms - PLANNING_MARGIN_MS
        # Lexicographic (energy, latency) and (latency, energy) minima; a
        # strict ``<`` keeps the earliest point on ties.
        best = fastest = None
        best_energy = best_latency = fastest_latency = fastest_energy = 0.0
        for config, effective_ghz, power_w in ctx.power_table.priced_points(ctx.system):
            latency_ms = tmem + ndep / effective_ghz
            energy_mj = power_w * latency_ms
            if latency_ms <= budget and (
                best is None
                or energy_mj < best_energy
                or (energy_mj == best_energy and latency_ms < best_latency)
            ):
                best, best_energy, best_latency = config, energy_mj, latency_ms
            if (
                fastest is None
                or latency_ms < fastest_latency
                or (latency_ms == fastest_latency and energy_mj < fastest_energy)
            ):
                fastest, fastest_latency, fastest_energy = config, latency_ms, energy_mj
        config = best if best is not None else fastest
        plan = self._plans.get(config)
        if plan is None:
            plan = self._plans[config] = ExecutionPlan.single(config)
        return plan
