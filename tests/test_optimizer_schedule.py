"""Unit tests for the scheduling-problem data model."""

import pytest

from repro.core.optimizer.schedule import Assignment, EventSpec, Schedule, simulate_order
from repro.hardware.acmp import AcmpConfig
from repro.schedulers.base import ConfigOption


def option(latency: float, power: float, freq: int = 1000) -> ConfigOption:
    return ConfigOption(config=AcmpConfig("A15", freq), latency_ms=latency, power_w=power)


def spec(label: str, release: float, deadline: float, options=None) -> EventSpec:
    options = options or (option(100.0, 1.0, 1800), option(200.0, 0.4, 800))
    return EventSpec(label=label, release_ms=release, deadline_ms=deadline, options=tuple(options))


class TestEventSpec:
    def test_requires_options(self):
        with pytest.raises(ValueError):
            EventSpec(label="x", release_ms=0.0, deadline_ms=10.0, options=())

    def test_deadline_after_release(self):
        with pytest.raises(ValueError):
            spec("x", release=100.0, deadline=50.0)

    def test_fastest_option(self):
        s = spec("x", 0.0, 1000.0)
        assert s.fastest_option.latency_ms == pytest.approx(100.0)


class TestSimulateOrder:
    def test_sequential_execution_with_release_gaps(self):
        specs = [spec("a", 0.0, 1000.0), spec("b", 500.0, 1500.0)]
        choices = [s.fastest_option for s in specs]
        assignments = simulate_order(specs, choices, window_start_ms=0.0)
        assert assignments[0].start_ms == pytest.approx(0.0)
        assert assignments[0].finish_ms == pytest.approx(100.0)
        # The second event cannot start before its release time.
        assert assignments[1].start_ms == pytest.approx(500.0)
        assert assignments[1].finish_ms == pytest.approx(600.0)

    def test_back_to_back_when_released(self):
        specs = [spec("a", 0.0, 1000.0), spec("b", 0.0, 1000.0)]
        choices = [s.fastest_option for s in specs]
        assignments = simulate_order(specs, choices, window_start_ms=50.0)
        assert assignments[0].start_ms == pytest.approx(50.0)
        assert assignments[1].start_ms == pytest.approx(150.0)

    def test_length_mismatch_rejected(self):
        specs = [spec("a", 0.0, 1000.0)]
        with pytest.raises(ValueError):
            simulate_order(specs, [], 0.0)


class TestAssignmentAndSchedule:
    def test_assignment_deadline_accounting(self):
        s = spec("a", 0.0, 150.0)
        late = Assignment(spec=s, option=s.options[1], start_ms=0.0, finish_ms=200.0)
        assert not late.meets_deadline
        on_time = Assignment(spec=s, option=s.options[0], start_ms=0.0, finish_ms=100.0)
        assert on_time.meets_deadline

    def test_schedule_aggregates(self):
        s1, s2 = spec("a", 0.0, 150.0), spec("b", 0.0, 120.0)
        assignments = (
            Assignment(spec=s1, option=s1.options[0], start_ms=0.0, finish_ms=100.0),
            Assignment(spec=s2, option=s2.options[1], start_ms=100.0, finish_ms=300.0),
        )
        schedule = Schedule(assignments=assignments, feasible=False)
        assert len(schedule.assignments) == 2
        assert schedule.total_energy_mj == pytest.approx(
            assignments[0].energy_mj + assignments[1].energy_mj
        )
