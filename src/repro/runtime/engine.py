"""Event-driven simulation engines.

Three engines replay a recorded/generated trace against the ACMP hardware
model:

* :class:`ReactiveEngine` — for per-event reactive schedulers (Interactive,
  Ondemand, EBS).  Each event starts when it arrives (or when the previous
  event finishes, whichever is later), runs under the scheduler's execution
  plan, and is displayed at the next VSync.
* :class:`ProactiveEngine` — for PES.  Between user inputs the engine
  executes the speculative schedule produced by the PES optimizer; when an
  actual event arrives, the control unit either commits the speculative
  frame (correct prediction) or squashes the speculative state and the
  event is executed reactively by the EBS fallback (mis-prediction).
* :class:`OracleEngine` — the upper bound with a priori knowledge of the
  entire event sequence, arrival times, and workloads.

Each session replay keeps one ledger, :class:`_Replay`: the fault-perturbed
trace, the fault and thermal seams, the outcomes, when the execution
resource frees up, how long it has been busy and the configuration it was
left in.  Two kernels write it.  :meth:`_Replay.react` plans an event
against the instantaneous (thermal- and fuel-gauge-) capped platform,
executes it under the DVFS and battery fault models and records the
outcome; the reactive schemes and PES's EBS fallback use it.
:meth:`_Replay.commit` runs a frame that is already planned, at the
configuration the DVFS and brown-out faults leave it; PES commits and
Oracle windows use it.

Per event the kernels rebuild nothing that stays fixed between events:
both read each configuration's effective GHz and power from the platform's
:meth:`PowerTable.priced_configs` table (built once per platform, and used
with the float expressions of Eqn. 1), the EBS and Interactive schedulers
hand out memoised immutable plans (one per configuration or ramp, keyed by
value), and the live thermal state recomputes its cap, and the platform
the cap leaves, only when the temperature moves.  What a reactive event
does create is its scheduler context and its :class:`EventOutcome`.

Both kernels display a frame at the first VSync at or after its
completion (:func:`~repro.webapp.rendering.next_vsync_ms`).

Energy accounting: active intervals are charged at the configuration's
power from the power table; the remainder of the session is charged at idle
power; work squashed on a mis-prediction is counted both in the total and
separately as waste (Sec. 6.3 / Fig. 10).

One modelling note: speculative executions that are later *committed* are
timed and charged using the matching event's actual workload (speculation
runs the real callback); executions that are later *squashed* are charged
using the optimizer's estimated workload, truncated at the moment the
mis-prediction is detected.  The Pending Frame Buffer history used for the
Fig. 9 plot is based on the optimizer's planned completion times.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING

from repro.core.control.control_unit import ControlUnit, MatchResult
from repro.core.optimizer.ilp import BranchAndBoundSolver
from repro.core.optimizer.schedule import EventSpec
from repro.core.pes import PesScheduler
from repro.faults.injector import NO_BATTERY_EFFECT, SessionFaultState
from repro.hardware.acmp import AcmpConfig, AcmpSystem
from repro.hardware.dvfs import DvfsModel
from repro.hardware.thermal import ThermalState
from repro.runtime.metrics import EventOutcome, SessionResult, ThermalSessionStats
from repro.schedulers.base import (
    EventContext,
    ExecutionPlan,
    ReactiveScheduler,
    capped_system,
    enumerate_options,
)
from repro.schedulers.oracle import OracleScheduler
from repro.traces.trace import Trace, TraceEvent
from repro.webapp.rendering import next_vsync_ms, planning_deadline_ms

if TYPE_CHECKING:  # pragma: no cover - simulator.py imports this module
    from repro.runtime.simulator import SimulationSetup


def execute_plan(
    setup: SimulationSetup,
    plan: ExecutionPlan,
    workload: DvfsModel,
    start_ms: float,
    previous_config: AcmpConfig | None,
) -> tuple[float, float, float, AcmpConfig]:
    """Run an event's work through the plan's configuration phases.

    Returns ``(finish_ms, cpu_time_ms, active_energy_mj, final_config)``.
    Work progresses proportionally: running for ``d`` milliseconds at a
    configuration whose full-event latency is ``T`` completes ``d / T`` of
    the event.  Configuration switches (cluster migration and/or frequency
    change) add latency charged at the destination configuration's power.
    Each configuration's effective GHz and power come from the platform's
    :meth:`PowerTable.priced_configs` table, with the float expressions of
    :meth:`DvfsModel.latency_ms` and :meth:`PowerTable.power_w`.
    """
    priced = setup.power_table.priced_configs(setup.system)
    tmem, ndep = workload.tmem_ms, workload.ndep_mcycles
    elapsed = 0.0
    energy = 0.0
    remaining = 1.0
    current = previous_config
    for phase in plan.phases:
        config = phase.config
        try:
            effective_ghz, power = priced[config]
        except KeyError:
            raise KeyError(f"no power entry for configuration {config}") from None
        if current is not None and current is not config:
            switch = setup.switching.switch_latency_ms(current, config)
            if switch > 0.0:
                elapsed += switch
                energy += power * switch
        current = config
        full_latency = tmem + ndep / effective_ghz
        needed = remaining * full_latency
        duration = phase.duration_ms
        if duration is None or needed <= duration:
            elapsed += needed
            energy += power * needed
            remaining = 0.0
            break
        elapsed += duration
        energy += power * duration
        remaining -= duration / full_latency
    if remaining > 1e-9:
        raise RuntimeError("execution plan ended before the event's work completed")
    return start_ms + elapsed, elapsed, energy, current


def _requested_transition(
    plan: ExecutionPlan, previous_config: AcmpConfig | None
) -> AcmpConfig | None:
    """The first configuration the plan switches to, ``None`` if it stays put."""
    if previous_config is None:
        return None
    for phase in plan.phases:
        if phase.config != previous_config:
            return phase.config
    return None


class _SessionThermal:
    """Live thermal state for one session replay (dynamic thermal mode).

    Owns the piecewise advancement of the package temperature along the
    session timeline — idle gaps at idle power, active intervals at the
    interval's (mean) power — and answers the one question the engines ask
    before planning each event: *what does the platform look like right
    now?*  :meth:`system_now` returns the base platform when the
    instantaneous cap clears the ladder and the memoised throttled platform
    otherwise, so a constant curve degenerates to exactly the statically
    capped system on every event.

    Throttled wall-clock is attributed piecewise: each advanced interval
    counts as throttled when the cap *entering* the interval was engaged —
    the same cap the scheduler planned against — which keeps the residency
    metric deterministic and independent of how the timeline is sliced into
    engine-internal segments.

    Under sensor faults (``faults`` with an active sensor model), the true
    physics are untouched — the package heats and cools exactly as before —
    but the cap the engines plan against is derived from the *sensed*
    temperature, refreshed once per advanced interval.  Peak temperature and
    throttled-time telemetry stay true-physics (throttled-time counts the
    governor's actual, possibly-wrong behaviour via the sensed cap).

    The cap, and the platform it leaves, change only when the temperature
    does, so :meth:`_advance` recomputes them and every other read is an
    attribute.
    """

    def __init__(self, setup: SimulationSetup, faults: SessionFaultState | None = None) -> None:
        assert setup.thermal is not None
        self._base_system = setup.system
        self._idle_w = setup.power_table.idle_w
        self._full_max_mhz = max(
            cluster.max_frequency_mhz for cluster in setup.system.clusters
        )
        self.state = ThermalState(setup.thermal)
        self.clock_ms = 0.0
        self.peak_c = self.state.temperature_c
        self.throttled_ms = 0.0
        self._throttled_events = 0
        self._unthrottled_events = 0
        self._throttled_latency_ms = 0.0
        self._unthrottled_latency_ms = 0.0
        self._faults = faults if faults is not None and not faults.spec.sensor.is_null else None
        self._sensed_c = self.state.temperature_c
        self._refresh_cap()

    # -- instantaneous capability ------------------------------------------------

    def _refresh_cap(self) -> None:
        """Recompute the cap the throttle governor enforces, and what it leaves.

        The cap is the true one unless a sensor fault model is active, in
        which case the governor derives it from the corrupted reading.
        ``throttled_now`` is true when the cap removes at least the top
        ladder rung, and ``_system`` is the platform the scheduler must see.
        """
        if self._faults is None:
            cap = self.state.cap_mhz
        else:
            cap = self.state.model.cap_mhz(self._sensed_c)
        self.throttled_now = cap < self._full_max_mhz
        self._system = capped_system(self._base_system, cap) if self.throttled_now else self._base_system

    def system_now(self) -> AcmpSystem:
        """The platform as the scheduler must see it at the current instant."""
        return self._system

    # -- timeline advancement ----------------------------------------------------

    def _advance(self, until_ms: float, power_w: float) -> None:
        dt_ms = until_ms - self.clock_ms
        if dt_ms <= 0.0:
            return
        if self.throttled_now:
            self.throttled_ms += dt_ms
        temperature = self.state.advance(power_w, dt_ms / 1000.0)
        if temperature > self.peak_c:
            self.peak_c = temperature
        if self._faults is not None:
            self._sensed_c = self._faults.sense(temperature, self.state.model)
        self.clock_ms = until_ms
        self._refresh_cap()

    def idle_to(self, until_ms: float) -> None:
        """Cool (or keep relaxing) through an idle gap up to ``until_ms``."""
        self._advance(until_ms, self._idle_w)

    def active(self, start_ms: float, end_ms: float, power_w: float) -> None:
        """Heat through an active interval, idling through any gap before it."""
        self.idle_to(start_ms)
        self._advance(end_ms, power_w)

    # -- per-event telemetry -----------------------------------------------------

    def note_event(self, planned_throttled: bool, latency_ms: float) -> None:
        """Record an event's latency under the cap it was planned against."""
        if planned_throttled:
            self._throttled_events += 1
            self._throttled_latency_ms += latency_ms
        else:
            self._unthrottled_events += 1
            self._unthrottled_latency_ms += latency_ms

    def finalize(self, duration_ms: float) -> ThermalSessionStats:
        return ThermalSessionStats(
            peak_temperature_c=self.peak_c,
            throttled_ms=self.throttled_ms,
            duration_ms=duration_ms,
            throttled_events=self._throttled_events,
            unthrottled_events=self._unthrottled_events,
            throttled_latency_ms=self._throttled_latency_ms,
            unthrottled_latency_ms=self._unthrottled_latency_ms,
        )


class _Replay:
    """One session replay's ledger, and the two kernels that write it.

    Holds the fault-perturbed trace, the fault and thermal seams (each
    ``None`` when its model is off), the outcomes so far, when the single
    execution resource frees up (``busy_until``), how long it has been busy
    (``busy_ms``) and the configuration it was left in.  Only :meth:`react`
    and :meth:`commit` append outcomes; PES's squash loop adds its wasted
    time to ``busy_ms`` directly.
    """

    def __init__(self, setup: SimulationSetup, trace: Trace, scheme: str) -> None:
        self.setup = setup
        self.scheme = scheme
        # A zero-rate spec injects nothing, so it opens no fault state and
        # draws no randomness: bit-identical to running without one.
        spec = setup.faults
        self.faults = (
            SessionFaultState(spec, trace, scheme) if spec is not None and not spec.is_null else None
        )
        self.trace = self.faults.transform(trace) if self.faults is not None else trace
        self.thermal = _SessionThermal(setup, self.faults) if setup.thermal is not None else None
        #: Configuration -> (effective GHz, active W) on the session's platform.
        self.priced = setup.power_table.priced_configs(setup.system)
        self.outcomes: list[EventOutcome] = []
        self.busy_until = 0.0
        self.busy_ms = 0.0
        self.previous_config: AcmpConfig | None = None

    def planning_system(self) -> tuple[AcmpSystem, bool]:
        """The platform to plan over right now, and whether its cap is engaged."""
        if self.thermal is None:
            return self.setup.system, False
        return self.thermal.system_now(), self.thermal.throttled_now

    def react(
        self,
        scheduler: ReactiveScheduler,
        event: TraceEvent,
        start_ms: float,
        *,
        idle_before_ms: float = 0.0,
        mispredicted: bool = False,
    ) -> None:
        """Plan and execute one event reactively — the kernel shared by the
        reactive schemes and PES's EBS fallback.

        A failed DVFS transition (drawn only when the plan asks to switch)
        runs the whole event at the prior configuration, after paying the
        attempted switch latency as time and as energy at the prior
        configuration's power.  A sagging rail scales the event's energy and
        ledgers only the extra above the nominal draw.
        """
        setup, faults, thermal = self.setup, self.faults, self.thermal
        if thermal is not None:
            # Cool through the gap, then plan against the platform's
            # *instantaneous* capability at the moment execution starts.
            thermal.idle_to(start_ms)
        system, planned_throttled = self.planning_system()
        battery = NO_BATTERY_EFFECT if faults is None else faults.battery_event(event.index, start_ms)
        if battery.cap_mhz is not None:
            # Misreported fuel gauge: the governor plans this event over the
            # low-battery ladder even though the cell is fine.
            system = capped_system(system, battery.cap_mhz)
        if battery.force_lowest:
            # Brown-out: the rail overrides the governor entirely and pins the
            # event to the platform's lowest rung.
            plan = ExecutionPlan.single(setup.system.min_performance_config)
        else:
            plan = scheduler.plan(
                EventContext(event, start_ms, system, setup.power_table, idle_before_ms)
            )
        previous = self.previous_config
        requested = _requested_transition(plan, previous) if faults is not None else None
        if requested is not None and faults.dvfs_transition_fails():
            penalty_ms = setup.switching.switch_latency_ms(previous, requested)
            penalty_mj = penalty_ms * setup.power_table.power_w(previous)
            faults.note_dvfs_fault(event.index, penalty_mj)
            finish, cpu_ms, energy, final = execute_plan(
                setup, ExecutionPlan.single(previous), event.workload, start_ms + penalty_ms, previous
            )
            cpu_ms += penalty_ms
            energy += penalty_mj
        else:
            finish, cpu_ms, energy, final = execute_plan(
                setup, plan, event.workload, start_ms, previous
            )
        if battery.power_scale != 1.0:
            extra = energy * (battery.power_scale - 1.0)
            faults.note_fault_energy(extra)
            energy += extra
        display = next_vsync_ms(finish)
        self.outcomes.append(
            EventOutcome(
                index=event.index,
                event_type=event.event_type,
                arrival_ms=event.arrival_ms,
                start_ms=start_ms,
                finish_ms=finish,
                display_ms=display,
                qos_target_ms=event.qos_target_ms,
                active_energy_mj=energy,
                config_label=str(plan.final_config),
                mispredicted=mispredicted,
                queue_delay_ms=start_ms - event.arrival_ms,
            )
        )
        if thermal is not None:
            if cpu_ms > 0.0:
                # Mean power over the interval: exact for single-phase plans,
                # the energy-preserving average for ramps.
                thermal.active(start_ms, finish, energy / cpu_ms)
            thermal.note_event(planned_throttled, display - event.arrival_ms)
        self.busy_until = finish
        self.busy_ms += cpu_ms
        self.previous_config = final

    def commit(
        self, planned: AcmpConfig, event: TraceEvent, start_ms: float, planned_throttled: bool
    ) -> None:
        """Run an already-planned frame — the kernel shared by PES commits and
        Oracle windows.

        A failed DVFS transition holds the prior configuration but still pays
        the attempted switch latency; a brown-out pins the platform's lowest
        rung.  The frame is already planned, so a fuel-gauge misreport has
        nothing left to cap (``planning=False``); brown-outs and rail sags hit
        the execution itself all the same.  ``planned_throttled`` is whether
        the cap was engaged when the frame was planned.
        """
        setup, faults, previous = self.setup, self.faults, self.previous_config
        chosen = planned
        switch = setup.switching.switch_latency_ms(previous, chosen)
        if (
            faults is not None
            and previous is not None
            and chosen != previous
            and faults.dvfs_transition_fails()
        ):
            faults.note_dvfs_fault(event.index, switch * setup.power_table.power_w(previous))
            chosen = previous
        battery = (
            NO_BATTERY_EFFECT
            if faults is None
            else faults.battery_event(event.index, start_ms, planning=False)
        )
        if battery.force_lowest and chosen != setup.system.min_performance_config:
            chosen = setup.system.min_performance_config
            switch = setup.switching.switch_latency_ms(previous, chosen)
        effective_ghz, base_power = self.priced[chosen]
        workload = event.workload
        # Eqn. 1 with the float expression of DvfsModel.latency_ms.
        duration = switch + (workload.tmem_ms + workload.ndep_mcycles / effective_ghz)
        finish = start_ms + duration
        power = base_power * battery.power_scale
        if battery.power_scale != 1.0:
            faults.note_fault_energy((power - base_power) * duration)
        outcome = EventOutcome(
            index=event.index,
            event_type=event.event_type,
            arrival_ms=event.arrival_ms,
            start_ms=start_ms,
            finish_ms=finish,
            display_ms=next_vsync_ms(max(finish, event.arrival_ms)),
            qos_target_ms=event.qos_target_ms,
            active_energy_mj=power * duration,
            config_label=str(chosen),
            speculative=True,
        )
        self.outcomes.append(outcome)
        if self.thermal is not None:
            self.thermal.active(start_ms, finish, power)
            self.thermal.note_event(planned_throttled, outcome.latency_ms)
        self.busy_until = finish
        self.busy_ms += duration
        self.previous_config = chosen

    def close(self, **speculation) -> SessionResult:
        """The finished session, which lasts until its last frame is displayed:
        idle energy over the non-busy time, plus the thermal and fault ledgers
        when their models are on.  ``speculation`` carries PES's waste and
        prediction counters."""
        duration = self.outcomes[-1].display_ms if self.outcomes else 0.0
        return SessionResult(
            app_name=self.trace.app_name,
            scheduler_name=self.scheme,
            outcomes=self.outcomes,
            idle_energy_mj=max(0.0, duration - self.busy_ms) * self.setup.power_table.idle_w,
            duration_ms=duration,
            thermal=self.thermal.finalize(duration) if self.thermal is not None else None,
            faults=self.faults.finalize(self.outcomes) if self.faults is not None else None,
            **speculation,
        )


@dataclass
class ReactiveEngine:
    """Replays a trace under a reactive (per-event) scheduler."""

    setup: SimulationSetup

    def run(self, trace: Trace, scheduler: ReactiveScheduler) -> SessionResult:
        scheduler.reset()
        replay = _Replay(self.setup, trace, scheduler.name)
        for event in replay.trace:
            replay.react(
                scheduler,
                event,
                max(event.arrival_ms, replay.busy_until),
                idle_before_ms=max(0.0, event.arrival_ms - replay.busy_until),
            )
        return replay.close()


@dataclass
class ProactiveEngine:
    """Replays a trace under PES (speculative, prediction-driven).

    The engine dispatches the control unit's round (:attr:`ControlUnit.pending`)
    itself: it commits the head on a match and charges the rest as waste on a
    mis-prediction.  Speculative frames make no network requests (paper
    Sec. 5.3), and the engine models no network I/O.
    """

    setup: SimulationSetup

    def run(self, trace: Trace, pes: PesScheduler) -> SessionResult:
        pes.reset()
        control = pes.control
        replay = _Replay(self.setup, trace, pes.name)
        faults, thermal = replay.faults, replay.thermal
        wasted_energy = 0.0
        wasted_time = 0.0
        spec_cursor = 0.0  # earliest time the next speculative execution can start
        # Whether the cap was engaged when the current round's schedule was
        # solved — committed frames inherit the round's planning conditions.
        round_throttled = False

        for event in replay.trace:
            arrival = event.arrival_ms
            self._push_ready_frames(control, arrival)
            verdict = control.validate(event.event_type)
            injected_flip = False
            if (
                faults is not None
                and verdict is MatchResult.MATCH
                and faults.flip_prediction(event.index)
            ):
                # Forced misprediction: the frame that would have committed is
                # squashed through the real recovery machinery below.
                injected_flip = True
                verdict = MatchResult.MISPREDICT

            committed = verdict is MatchResult.MATCH
            if committed:
                assignment = control.confirm_match(arrival)
                replay.commit(
                    assignment.option.config,
                    event,
                    max(spec_cursor, replay.busy_until),
                    round_throttled,
                )

            elif verdict is MatchResult.MISPREDICT:
                # Account the speculative work performed for the (wrong)
                # predictions, truncated at the moment the actual event
                # arrives and the control unit squashes.
                waste_before = wasted_energy
                waste_clock = max(spec_cursor, replay.busy_until)
                waste_config = replay.previous_config
                for _, assignment in control.pending:
                    if waste_clock >= arrival:
                        break
                    chosen = assignment.option.config
                    est_duration = (
                        self.setup.switching.switch_latency_ms(waste_config, chosen)
                        + assignment.option.latency_ms
                    )
                    run_time = min(est_duration, arrival - waste_clock)
                    power = self.setup.power_table.power_w(chosen)
                    wasted_time += run_time
                    wasted_energy += power * run_time
                    replay.busy_ms += run_time
                    if thermal is not None:
                        # Squashed work heats the package all the same.
                        thermal.active(waste_clock, waste_clock + run_time, power)
                    waste_clock += run_time
                    waste_config = chosen
                replay.previous_config = waste_config
                control.handle_mispredict(arrival)
                if injected_flip:
                    # The squashed speculative work only went to waste because
                    # of the injected flip; charge it to the fault ledger.
                    faults.note_fault_energy(wasted_energy - waste_before)

            if not committed:
                # Mispredicted, or nothing to commit (prediction disabled or
                # nothing pending yet): the EBS fallback runs it reactively.
                replay.react(
                    pes.fallback,
                    event,
                    max(arrival, replay.busy_until),
                    mispredicted=verdict is MatchResult.MISPREDICT,
                )
            spec_cursor = replay.busy_until

            pes.observe_event(event)
            pes.record_execution(event.event_type, event.workload)

            # Start a new prediction round once the previous one has drained.
            if control.prediction_enabled and not control.pending:
                round_start = max(replay.busy_until, arrival)
                if thermal is not None:
                    # The optimizer solves the round against the platform's
                    # capability at the moment the round opens.
                    thermal.idle_to(round_start)
                    pes.start_round(round_start, system=thermal.system_now())
                    round_throttled = thermal.throttled_now
                else:
                    pes.start_round(round_start)
                spec_cursor = round_start

        return replay.close(
            wasted_energy_mj=wasted_energy,
            wasted_time_ms=wasted_time,
            mispredictions=control.mispredictions,
            commits=control.commits,
            predictions_made=control.predictions_made,
            prediction_rounds=control.rounds,
            pfb_size_history=list(control.pfb.size_history),
        )

    @staticmethod
    def _push_ready_frames(control: ControlUnit, now_ms: float) -> None:
        """Park the round's frames whose planned completion time has passed
        in the Pending Frame Buffer (used for the Fig. 9 dynamics)."""
        pfb = control.pfb
        for _, assignment in islice(control.pending, pfb.size, None):
            if assignment.finish_ms > now_ms:
                break
            pfb.push(assignment.finish_ms)


@dataclass
class OracleEngine:
    """Replays a trace with a priori knowledge of the whole event sequence.

    The planning window comes from :attr:`OracleScheduler.lookahead_events`.
    """

    setup: SimulationSetup

    def run(self, trace: Trace, oracle: OracleScheduler | None = None) -> SessionResult:
        oracle = oracle or OracleScheduler()
        solver = BranchAndBoundSolver()
        replay = _Replay(self.setup, trace, oracle.name)
        events = list(replay.trace)
        chunk_size = oracle.lookahead_events or len(events) or 1

        for index in range(0, len(events), chunk_size):
            chunk = events[index : index + chunk_size]
            clock = replay.busy_until
            # The oracle plans each window against the platform's capability
            # at planning time (the window's start), the same sampling
            # discipline as a PES prediction round.
            planning_system, chunk_throttled = replay.planning_system()
            specs = [
                EventSpec(
                    label=f"event-{e.index}",
                    release_ms=clock,
                    deadline_ms=planning_deadline_ms(e.deadline_ms, clock),
                    options=tuple(
                        enumerate_options(
                            planning_system, self.setup.power_table, e.workload, pareto_only=True
                        )
                    ),
                )
                for e in chunk
            ]
            schedule = solver.solve(specs, clock)
            for event, assignment in zip(chunk, schedule.assignments):
                replay.commit(
                    assignment.option.config,
                    event,
                    max(replay.busy_until, assignment.start_ms),
                    chunk_throttled,
                )

        return replay.close()
