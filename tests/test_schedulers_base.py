"""Unit tests for scheduler interfaces and option enumeration."""

import pytest

from repro.hardware.acmp import AcmpConfig
from repro.hardware.dvfs import DvfsModel
from repro.hardware.platforms import exynos_5410
from repro.hardware.power import PowerModel
from repro.schedulers.base import ConfigPhase, EventContext, ExecutionPlan, enumerate_options
from repro.traces.trace import TraceEvent
from repro.webapp.events import EventType


@pytest.fixture(scope="module")
def system():
    return exynos_5410()


@pytest.fixture(scope="module")
def power_table(system):
    return PowerModel().build_table(system)


class TestExecutionPlan:
    def test_requires_unbounded_final_phase(self):
        with pytest.raises(ValueError):
            ExecutionPlan(phases=(ConfigPhase(AcmpConfig("A15", 800), 10.0),))

    def test_requires_at_least_one_phase(self):
        with pytest.raises(ValueError):
            ExecutionPlan(phases=())

    def test_single_and_ramp_constructors(self):
        single = ExecutionPlan.single(AcmpConfig("A15", 800))
        assert len(single.phases) == 1
        ramp = ExecutionPlan.ramp(AcmpConfig("A15", 800), 20.0, AcmpConfig("A15", 1800))
        assert len(ramp.phases) == 2
        assert ramp.final_config == AcmpConfig("A15", 1800)

    def test_ramp_with_identical_configs_collapses(self):
        ramp = ExecutionPlan.ramp(AcmpConfig("A15", 800), 20.0, AcmpConfig("A15", 800))
        assert len(ramp.phases) == 1

    def test_phase_duration_must_be_positive(self):
        with pytest.raises(ValueError):
            ConfigPhase(AcmpConfig("A15", 800), 0.0)


class TestEventContext:
    def test_remaining_budget(self, system, power_table):
        event = TraceEvent(
            index=0,
            event_type=EventType.CLICK,
            node_id="n",
            arrival_ms=1000.0,
            workload=DvfsModel(10.0, 100.0),
        )
        ctx = EventContext(event=event, start_ms=1100.0, system=system, power_table=power_table)
        assert ctx.remaining_budget_ms == pytest.approx(200.0)


class TestEnumerateOptions:
    def test_one_option_per_configuration(self, system, power_table):
        options = enumerate_options(system, power_table, DvfsModel(10.0, 200.0))
        assert len(options) == len(system.configurations())

    def test_sorted_by_latency(self, system, power_table):
        options = enumerate_options(system, power_table, DvfsModel(10.0, 200.0))
        latencies = [o.latency_ms for o in options]
        assert latencies == sorted(latencies)

    def test_pareto_pruning_removes_dominated_options(self, system, power_table):
        full = enumerate_options(system, power_table, DvfsModel(10.0, 200.0))
        pruned = enumerate_options(system, power_table, DvfsModel(10.0, 200.0), pareto_only=True)
        assert 0 < len(pruned) <= len(full)
        # No pruned option is dominated by another pruned option.
        for option in pruned:
            assert not any(
                other.latency_ms <= option.latency_ms and other.energy_mj < option.energy_mj
                for other in pruned
                if other is not option
            )

    def test_pareto_front_keeps_fastest_option(self, system, power_table):
        workload = DvfsModel(10.0, 200.0)
        full = enumerate_options(system, power_table, workload)
        pruned = enumerate_options(system, power_table, workload, pareto_only=True)
        assert min(o.latency_ms for o in pruned) == pytest.approx(min(o.latency_ms for o in full))

    def test_energy_is_power_times_latency(self, system, power_table):
        options = enumerate_options(system, power_table, DvfsModel(5.0, 100.0))
        for option in options:
            assert option.energy_mj == pytest.approx(option.power_w * option.latency_ms)
