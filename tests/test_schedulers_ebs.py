"""Unit tests for the EBS reactive QoS-aware scheduler."""

import pytest

from repro.hardware.dvfs import DvfsModel
from repro.hardware.platforms import exynos_5410
from repro.hardware.power import PowerModel
from repro.schedulers.base import EventContext, enumerate_options
from repro.schedulers.ebs import EbsScheduler
from repro.schedulers.oracle import OracleScheduler
from repro.traces.trace import TraceEvent
from repro.webapp.events import EventType
from repro.webapp.rendering import PLANNING_MARGIN_MS


@pytest.fixture(scope="module")
def system():
    return exynos_5410()


@pytest.fixture(scope="module")
def power_table(system):
    return PowerModel().build_table(system)


def make_ctx(system, power_table, workload, event_type=EventType.CLICK, queue_delay=0.0):
    event = TraceEvent(
        index=0, event_type=event_type, node_id="n", arrival_ms=1000.0, workload=workload
    )
    return EventContext(
        event=event,
        start_ms=1000.0 + queue_delay,
        system=system,
        power_table=power_table,
    )


class TestEbs:
    def test_meets_deadline_with_minimum_energy(self, system, power_table):
        workload = DvfsModel(tmem_ms=15.0, ndep_mcycles=200.0)
        ctx = make_ctx(system, power_table, workload)
        scheduler = EbsScheduler()
        plan = scheduler.plan(ctx)
        options = enumerate_options(system, power_table, workload)
        chosen = next(o for o in options if o.config == plan.final_config)
        budget = ctx.remaining_budget_ms - PLANNING_MARGIN_MS
        assert chosen.latency_ms <= budget
        feasible = [o for o in options if o.latency_ms <= budget]
        assert chosen.energy_mj == pytest.approx(min(o.energy_mj for o in feasible))

    def test_light_event_lands_on_cheap_configuration(self, system, power_table):
        workload = DvfsModel(tmem_ms=2.0, ndep_mcycles=20.0)
        plan = EbsScheduler().plan(make_ctx(system, power_table, workload))
        cheapest = min(
            enumerate_options(system, power_table, workload), key=lambda o: o.energy_mj
        )
        assert plan.final_config == cheapest.config

    def test_type_i_event_falls_back_to_fastest(self, system, power_table):
        # Even the fastest configuration cannot meet the 300 ms tap target.
        workload = DvfsModel(tmem_ms=50.0, ndep_mcycles=800.0)
        plan = EbsScheduler().plan(make_ctx(system, power_table, workload))
        assert plan.final_config == system.max_performance_config

    def test_interference_forces_higher_performance(self, system, power_table):
        """With the budget eaten by queueing delay, EBS must pick a faster,
        more energy-hungry configuration (the Type III pattern)."""
        workload = DvfsModel(tmem_ms=15.0, ndep_mcycles=200.0)
        relaxed = EbsScheduler().plan(make_ctx(system, power_table, workload))
        squeezed = EbsScheduler().plan(make_ctx(system, power_table, workload, queue_delay=180.0))
        options = {o.config: o for o in enumerate_options(system, power_table, workload)}
        assert options[squeezed.final_config].latency_ms < options[relaxed.final_config].latency_ms
        assert options[squeezed.final_config].energy_mj > options[relaxed.final_config].energy_mj

    def test_single_phase_plan(self, system, power_table):
        plan = EbsScheduler().plan(make_ctx(system, power_table, DvfsModel(5.0, 50.0)))
        assert len(plan.phases) == 1

    @pytest.mark.parametrize(
        ("field", "message"),
        [
            ("workload_safety_factor", "workload_safety_factor must be >= 1"),
        ],
    )
    def test_nan_rejected_at_construction(self, field, message):
        with pytest.raises(ValueError, match=message):
            EbsScheduler(**{field: float("nan")})


class TestOracleMarker:
    def test_lookahead_validation(self):
        with pytest.raises(ValueError):
            OracleScheduler(lookahead_events=0)
        assert OracleScheduler().lookahead_events == 48
        assert OracleScheduler(lookahead_events=None).lookahead_events is None
        assert OracleScheduler().name == "Oracle"
