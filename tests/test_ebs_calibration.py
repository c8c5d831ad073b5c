"""Tests for EBS's per-event-type workload calibration."""

import pytest

from repro.hardware.dvfs import DvfsModel
from repro.hardware.platforms import exynos_5410
from repro.hardware.power import PowerModel
from repro.schedulers.base import EventContext, enumerate_options
from repro.schedulers.ebs import EbsScheduler
from repro.traces.trace import TraceEvent
from repro.webapp.events import EventType


@pytest.fixture(scope="module")
def system():
    return exynos_5410()


@pytest.fixture(scope="module")
def power_table(system):
    return PowerModel().build_table(system)


def ctx_for(system, power_table, workload, index=0, event_type=EventType.CLICK):
    event = TraceEvent(
        index=index, event_type=event_type, node_id="n", arrival_ms=1000.0 * (index + 1), workload=workload
    )
    return EventContext(event=event, start_ms=event.arrival_ms, system=system, power_table=power_table)


class TestWorkloadCalibration:
    def test_first_encounters_use_measured_workload(self, system, power_table):
        scheduler = EbsScheduler(calibration_runs=2)
        heavy = DvfsModel(40.0, 600.0)
        plan = scheduler.plan(ctx_for(system, power_table, heavy, index=0))
        # A Type I workload planned with its measured cost lands on the
        # fastest configuration, proving the measurement was used.
        assert plan.final_config == system.max_performance_config

    def test_later_events_planned_from_running_average(self, system, power_table):
        scheduler = EbsScheduler(calibration_runs=2, workload_safety_factor=1.0)
        light = DvfsModel(5.0, 60.0)
        for index in range(2):
            scheduler.plan(ctx_for(system, power_table, light, index=index))
        # The third event is actually heavy, but EBS plans it against the
        # average of the light observations and therefore under-provisions.
        heavy = DvfsModel(40.0, 600.0)
        plan = scheduler.plan(ctx_for(system, power_table, heavy, index=2))
        assert plan.final_config != system.max_performance_config

    def test_safety_factor_inflates_the_estimate(self, system, power_table):
        light = DvfsModel(10.0, 150.0)
        plain = EbsScheduler(calibration_runs=0, workload_safety_factor=1.0)
        cautious = EbsScheduler(calibration_runs=0, workload_safety_factor=1.5)
        # Seed both with the same observations.
        for scheduler in (plain, cautious):
            for index in range(3):
                scheduler.plan(ctx_for(system, power_table, light, index=index))
        options = {o.config: o for o in enumerate_options(system, power_table, light)}
        plain_plan = plain.plan(ctx_for(system, power_table, light, index=3))
        cautious_plan = cautious.plan(ctx_for(system, power_table, light, index=3))
        assert options[cautious_plan.final_config].latency_ms <= options[plain_plan.final_config].latency_ms

    def test_types_are_calibrated_independently(self, system, power_table):
        scheduler = EbsScheduler(calibration_runs=1)
        scheduler.plan(ctx_for(system, power_table, DvfsModel(5.0, 50.0), index=0, event_type=EventType.SCROLL))
        # A first-time CLICK is still in its calibration phase.
        heavy_click = DvfsModel(40.0, 600.0)
        plan = scheduler.plan(ctx_for(system, power_table, heavy_click, index=1, event_type=EventType.CLICK))
        assert plan.final_config == system.max_performance_config

    def test_reset_clears_calibration(self, system, power_table):
        scheduler = EbsScheduler(calibration_runs=1)
        scheduler.plan(ctx_for(system, power_table, DvfsModel(5.0, 50.0), index=0))
        scheduler.reset()
        assert scheduler._seen == {}

    def test_safety_factor_validation(self):
        with pytest.raises(ValueError):
            EbsScheduler(workload_safety_factor=0.5)
        with pytest.raises(ValueError):
            EbsScheduler(calibration_runs=-1)
