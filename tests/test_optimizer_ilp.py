"""Unit tests for the branch-and-bound solver of the ILP formulation."""

import itertools

import pytest

from repro.core.optimizer.ilp import BranchAndBoundSolver, relax_infeasible_deadlines
from repro.core.optimizer.schedule import EventSpec, simulate_order
from repro.hardware.acmp import AcmpConfig
from repro.schedulers.base import ConfigOption


def option(latency: float, power: float, tag: int) -> ConfigOption:
    return ConfigOption(config=AcmpConfig("A15", 800 + tag * 100), latency_ms=latency, power_w=power)


def make_spec(label: str, release: float, deadline: float, options) -> EventSpec:
    return EventSpec(label=label, release_ms=release, deadline_ms=deadline, options=tuple(options))


def brute_force_optimum(specs, start):
    """Reference exhaustive search for small instances."""
    best_energy = float("inf")
    best = None
    for choices in itertools.product(*[s.options for s in specs]):
        assignments = simulate_order(specs, list(choices), start)
        if all(a.meets_deadline for a in assignments):
            energy = sum(a.energy_mj for a in assignments)
            if energy < best_energy:
                best_energy = energy
                best = assignments
    return best_energy, best


def three_event_window():
    fast = option(50.0, 3.0, 10)
    mid = option(100.0, 1.2, 5)
    slow = option(200.0, 0.5, 0)
    options = (fast, mid, slow)
    return [
        make_spec("e0", 0.0, 120.0, options),
        make_spec("e1", 0.0, 260.0, options),
        make_spec("e2", 150.0, 500.0, options),
    ]


class TestRelaxation:
    def test_feasible_instance_untouched(self):
        specs = three_event_window()
        relaxed, feasible = relax_infeasible_deadlines(specs, 0.0)
        assert feasible
        assert [s.deadline_ms for s in relaxed] == [s.deadline_ms for s in specs]

    def test_impossible_deadline_pushed_to_earliest_finish(self):
        tight = make_spec("t", 0.0, 10.0, (option(50.0, 3.0, 10),))
        relaxed, feasible = relax_infeasible_deadlines([tight], 0.0)
        assert not feasible
        assert relaxed[0].deadline_ms == pytest.approx(50.0)

    def test_relaxation_preserves_downstream_deadlines(self):
        specs = [
            make_spec("t", 0.0, 10.0, (option(50.0, 3.0, 10),)),
            make_spec("ok", 0.0, 500.0, (option(50.0, 3.0, 10), option(100.0, 1.0, 0))),
        ]
        relaxed, _ = relax_infeasible_deadlines(specs, 0.0)
        assert relaxed[1].deadline_ms == pytest.approx(500.0)


class TestBranchAndBound:
    def test_matches_brute_force_on_small_instances(self):
        specs = three_event_window()
        expected_energy, _ = brute_force_optimum(specs, 0.0)
        schedule = BranchAndBoundSolver().solve(specs, 0.0)
        assert schedule.feasible
        assert schedule.total_energy_mj == pytest.approx(expected_energy)

    def test_respects_deadlines(self):
        schedule = BranchAndBoundSolver().solve(three_event_window(), 0.0)
        for assignment in schedule.assignments:
            assert assignment.meets_deadline

    def test_prefers_cheap_configs_with_loose_deadlines(self):
        options = (option(50.0, 3.0, 10), option(200.0, 0.5, 0))
        specs = [make_spec(f"e{i}", 0.0, 10_000.0, options) for i in range(4)]
        schedule = BranchAndBoundSolver().solve(specs, 0.0)
        assert all(a.option.latency_ms == pytest.approx(200.0) for a in schedule.assignments)

    def test_speeds_up_predecessor_to_fit_heavy_event(self):
        """The Fig. 2 coordination pattern: the first event must run faster
        than its own deadline requires so the heavy second event can finish
        in time."""
        fast = option(50.0, 3.0, 10)
        slow = option(280.0, 0.5, 0)
        heavy_only = option(250.0, 3.0, 10)
        specs = [
            make_spec("light", 0.0, 300.0, (fast, slow)),
            make_spec("heavy", 0.0, 320.0, (heavy_only,)),
        ]
        schedule = BranchAndBoundSolver().solve(specs, 0.0)
        assert schedule.feasible
        assert schedule.assignments[0].option.latency_ms == pytest.approx(50.0)

    def test_infeasible_instance_minimises_lateness_not_crash(self):
        specs = [make_spec("t", 0.0, 10.0, (option(50.0, 3.0, 10), option(100.0, 1.0, 0)))]
        schedule = BranchAndBoundSolver().solve(specs, 0.0)
        assert not schedule.feasible
        assert schedule.assignments[0].option.latency_ms == pytest.approx(50.0)

    def test_empty_window(self):
        schedule = BranchAndBoundSolver().solve([], 0.0)
        assert schedule.feasible
        assert len(schedule.assignments) == 0

    def test_release_times_respected(self):
        options = (option(50.0, 3.0, 10), option(200.0, 0.5, 0))
        specs = [
            make_spec("a", 0.0, 1_000.0, options),
            make_spec("b", 600.0, 1_000.0, options),
        ]
        schedule = BranchAndBoundSolver().solve(specs, 0.0)
        assert schedule.assignments[1].start_ms >= 600.0

