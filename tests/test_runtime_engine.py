"""Unit and behavioural tests for the simulation engines."""

import pytest

from repro.core.control.control_unit import ControlUnit
from repro.core.pes import PesConfig, PesScheduler
from repro.faults import get_fault_preset
from repro.hardware.acmp import AcmpConfig
from repro.hardware.dvfs import DvfsModel
from repro.runtime.engine import OracleEngine, ProactiveEngine, ReactiveEngine, execute_plan
from repro.runtime.simulator import SimulationSetup, Simulator
from repro.scenarios.library import BUILTIN_SCENARIOS
from repro.schedulers.base import ConfigPhase, ExecutionPlan
from repro.schedulers.ebs import EbsScheduler
from repro.schedulers.interactive import InteractiveGovernor
from repro.schedulers.oracle import OracleScheduler
from repro.traces.generator import TraceGenerator
from repro.traces.trace import Trace, TraceEvent
from repro.webapp.events import EventType
from repro.webapp.rendering import VSYNC_PERIOD_MS, next_vsync_ms


def make_pes(learner, catalog, setup, app="cnn", **kwargs):
    return PesScheduler.create(
        learner=learner,
        profile=catalog.get(app),
        system=setup.system,
        power_table=setup.power_table,
        config=PesConfig(**kwargs) if kwargs else None,
    )


class TestExecutePlan:
    def test_single_phase_latency_matches_dvfs_model(self, setup):
        workload = DvfsModel(10.0, 180.0)
        config = AcmpConfig("A15", 1800)
        plan = ExecutionPlan.single(config)
        finish_ms, cpu_time_ms, active_energy_mj, _ = execute_plan(
            setup, plan, workload, 100.0, previous_config=config
        )
        assert finish_ms == pytest.approx(100.0 + workload.latency_ms(setup.system, config))
        assert active_energy_mj == pytest.approx(setup.power_table.power_w(config) * cpu_time_ms)

    def test_switching_cost_added_when_config_changes(self, setup):
        workload = DvfsModel(10.0, 180.0)
        config = AcmpConfig("A15", 1800)
        plan = ExecutionPlan.single(config)
        cold = execute_plan(setup, plan, workload, 0.0, previous_config=AcmpConfig("A7", 600))
        warm = execute_plan(setup, plan, workload, 0.0, previous_config=config)
        expected_switch = setup.switching.switch_latency_ms(AcmpConfig("A7", 600), config)
        assert cold[1] == pytest.approx(warm[1] + expected_switch)

    def test_ramp_is_slower_than_final_config_alone(self, setup):
        workload = DvfsModel(10.0, 400.0)
        slow = AcmpConfig("A15", 800)
        fast = AcmpConfig("A15", 1800)
        ramp = execute_plan(
            setup, ExecutionPlan.ramp(slow, 20.0, fast), workload, 0.0, previous_config=slow
        )
        direct = execute_plan(setup, ExecutionPlan.single(fast), workload, 0.0, previous_config=fast)
        assert ramp[1] > direct[1]

    def test_work_fully_completes_within_bounded_phase_when_short(self, setup):
        workload = DvfsModel(1.0, 9.0)  # ~6 ms at max performance
        fast = AcmpConfig("A15", 1800)
        plan = ExecutionPlan(phases=(ConfigPhase(fast, 20.0), ConfigPhase(AcmpConfig("A15", 800))))
        _, cpu_time_ms, _, final_config = execute_plan(setup, plan, workload, 0.0, previous_config=fast)
        assert final_config == fast
        assert cpu_time_ms < 20.0


class TestReactiveEngine:
    def test_ebs_replay_produces_one_outcome_per_event(self, setup, small_trace):
        result = ReactiveEngine(setup).run(small_trace, EbsScheduler())
        assert len(result.outcomes) == len(small_trace)
        assert result.scheduler_name == "EBS"
        assert result.app_name == small_trace.app_name

    def test_outcomes_keep_arrival_order_and_causality(self, setup, small_trace):
        result = ReactiveEngine(setup).run(small_trace, EbsScheduler())
        previous_finish = 0.0
        for event, outcome in zip(small_trace, result.outcomes):
            assert outcome.start_ms >= event.arrival_ms
            assert outcome.start_ms >= previous_finish
            assert outcome.display_ms >= outcome.finish_ms >= outcome.start_ms
            previous_finish = outcome.finish_ms

    def test_total_energy_includes_idle(self, setup, small_trace):
        result = ReactiveEngine(setup).run(small_trace, EbsScheduler())
        assert result.idle_energy_mj > 0.0
        assert result.total_energy_mj > result.active_energy_mj

    def test_interactive_consumes_more_energy_than_ebs(self, setup, sample_trace):
        interactive = ReactiveEngine(setup).run(sample_trace, InteractiveGovernor())
        ebs = ReactiveEngine(setup).run(sample_trace, EbsScheduler())
        assert interactive.total_energy_mj > ebs.total_energy_mj

    def test_display_aligned_to_vsync(self, setup, small_trace):
        result = ReactiveEngine(setup).run(small_trace, EbsScheduler())
        for outcome in result.outcomes:
            ticks = outcome.display_ms / VSYNC_PERIOD_MS
            assert abs(ticks - round(ticks)) < 1e-6
            assert outcome.display_ms == next_vsync_ms(outcome.finish_ms)


class TestProactiveEngine:
    def test_pes_replay_covers_every_event(self, setup, sample_trace, learner, catalog):
        pes = make_pes(learner, catalog, setup)
        result = ProactiveEngine(setup).run(sample_trace, pes)
        assert len(result.outcomes) == len(sample_trace)
        assert result.scheduler_name == "PES"
        assert result.commits + result.mispredictions <= len(sample_trace)

    def test_speculative_commits_present_with_good_predictor(self, setup, sample_trace, learner, catalog):
        pes = make_pes(learner, catalog, setup)
        result = ProactiveEngine(setup).run(sample_trace, pes)
        assert result.commits > 0
        assert any(outcome.speculative for outcome in result.outcomes)

    def test_wasted_work_only_with_mispredictions(self, setup, sample_trace, learner, catalog):
        pes = make_pes(learner, catalog, setup)
        result = ProactiveEngine(setup).run(sample_trace, pes)
        if result.mispredictions == 0:
            assert result.wasted_time_ms == pytest.approx(0.0)
        else:
            assert result.wasted_time_ms >= 0.0

    def test_pes_improves_on_ebs(self, setup, sample_trace, learner, catalog):
        """The headline claim on a single session: PES does not lose on QoS
        and does not lose on energy relative to EBS (and strictly improves
        at least one of the two)."""
        pes_result = ProactiveEngine(setup).run(sample_trace, make_pes(learner, catalog, setup))
        ebs_result = ReactiveEngine(setup).run(sample_trace, EbsScheduler())
        assert pes_result.qos_violation_rate <= ebs_result.qos_violation_rate + 1e-9
        assert pes_result.total_energy_mj <= ebs_result.total_energy_mj * 1.02

    def test_threshold_one_degenerates_to_reactive(self, setup, small_trace, learner, catalog):
        """At a 100% confidence threshold the predictor never speculates and
        PES falls back to per-event EBS behaviour."""
        pes = make_pes(learner, catalog, setup, app=small_trace.app_name, confidence_threshold=1.0)
        result = ProactiveEngine(setup).run(small_trace, pes)
        assert result.commits == 0
        assert all(not outcome.speculative for outcome in result.outcomes)

    def test_disable_after_mispredictions_stops_speculation(self, setup, small_trace, learner, catalog):
        pes = make_pes(learner, catalog, setup, app=small_trace.app_name, disable_after_mispredictions=1)
        result = ProactiveEngine(setup).run(small_trace, pes)
        # Once disabled, the remaining events are handled reactively; the run
        # completes and never exceeds one misprediction beyond the threshold.
        assert len(result.outcomes) == len(small_trace)

    def test_pfb_history_recorded(self, setup, sample_trace, learner, catalog):
        pes = make_pes(learner, catalog, setup)
        result = ProactiveEngine(setup).run(sample_trace, pes)
        if result.commits > 0:
            assert result.pfb_size_history
            assert all(size >= 0 for _, size in result.pfb_size_history)


def pfb_case(case: str, catalog) -> tuple[SimulationSetup, list[Trace]]:
    """A setup and two traces: no faults, ``chaos`` faults, or the
    ``hot_chassis_live`` scenario (flash-crowd sessions, dynamic thermal)."""
    generator = TraceGenerator(catalog=catalog)
    if case == "no_faults":
        setup = SimulationSetup()
    elif case == "chaos":
        setup = SimulationSetup(faults=get_fault_preset("chaos"))
    else:
        spec = BUILTIN_SCENARIOS[case]
        regime = spec.resolved_regime()
        generator = TraceGenerator(
            catalog=catalog, session=regime.session, workload_params=regime.workload_params
        )
        setup = SimulationSetup(system=spec.system(), thermal=spec.dynamic_thermal_model())
    return setup, [generator.generate("cnn", seed=4242), generator.generate("google", seed=99)]


class TestPfbCountsTheRound:
    """The buffered frames are always the head of the control unit's round."""

    @pytest.mark.parametrize("case", ["no_faults", "chaos", "hot_chassis_live"])
    def test_pfb_never_outgrows_the_round(self, case, catalog, learner, monkeypatch):
        sizes: list[int] = []
        validate = ControlUnit.validate

        def audited(control, actual_type):
            assert 0 <= control.pfb.size <= len(control.pending)
            sizes.append(control.pfb.size)
            return validate(control, actual_type)

        monkeypatch.setattr(ControlUnit, "validate", audited)
        setup, traces = pfb_case(case, catalog)
        results = Simulator(setup=setup, catalog=catalog).run_scheme(traces, "PES", learner=learner)
        # One check per replayed event (chaos drops and duplicates events).
        assert len(sizes) == sum(len(result.outcomes) for result in results)
        # Frames were buffered, so the bound was exercised, not vacuous.
        assert max(sizes) > 0
        assert sum(result.commits for result in results) > 0
        if case == "chaos":
            assert sum(result.faults.predictor_injected for result in results) > 0
        if case == "hot_chassis_live":
            assert all(result.thermal is not None for result in results)


class TestOracleEngine:
    def test_oracle_nearly_removes_violations(self, setup, sample_trace):
        """The paper's oracle removes all violations; the synthetic traces
        occasionally contain chains that are infeasible even with a priori
        knowledge (a Type I event immediately followed by a 33 ms-deadline
        move), so a small residual is tolerated."""
        oracle = OracleEngine(setup).run(sample_trace, OracleScheduler())
        ebs = ReactiveEngine(setup).run(sample_trace, EbsScheduler())
        assert oracle.qos_violation_rate <= 0.05
        assert oracle.qos_violation_rate <= ebs.qos_violation_rate * 0.5

    def test_oracle_energy_not_worse_than_ebs(self, setup, sample_trace):
        oracle = OracleEngine(setup).run(sample_trace, OracleScheduler())
        ebs = ReactiveEngine(setup).run(sample_trace, EbsScheduler())
        assert oracle.total_energy_mj <= ebs.total_energy_mj * 1.001

    def test_finite_lookahead_nearly_removes_violations(self, setup, small_trace):
        result = OracleEngine(setup).run(small_trace, OracleScheduler(lookahead_events=4))
        assert result.qos_violation_rate <= 0.1

    def test_every_event_reported(self, setup, small_trace):
        result = OracleEngine(setup).run(small_trace, OracleScheduler())
        assert len(result.outcomes) == len(small_trace)

    def test_bounded_default_lookahead_close_to_unbounded(self, setup, sample_trace):
        """A bounded planning window trades a tiny amount of energy for
        bounded per-window solve cost.  A 12-event window chunks the 39-event
        sample trace into four solver windows; the energy stays within a small
        tolerance of the whole-trace solve and QoS does not regress."""
        engine = OracleEngine(setup)
        unbounded = engine.run(sample_trace, OracleScheduler(lookahead_events=None))
        chunked = engine.run(sample_trace, OracleScheduler(lookahead_events=12))
        assert chunked.total_energy_mj >= unbounded.total_energy_mj * 0.999
        assert chunked.total_energy_mj <= unbounded.total_energy_mj * 1.02
        assert chunked.qos_violation_rate <= max(unbounded.qos_violation_rate, 0.05)

        default = OracleEngine(setup).run(sample_trace, OracleScheduler())
        assert default.total_energy_mj <= unbounded.total_energy_mj * 1.02

    def test_rejects_non_positive_default_lookahead(self):
        with pytest.raises(ValueError, match="lookahead_events"):
            OracleScheduler(lookahead_events=0)
