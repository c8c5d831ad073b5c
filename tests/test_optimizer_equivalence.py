"""Deadline safety of the window solver on integer-aligned random windows.

On windows whose every latency, release and deadline is a whole number of
milliseconds, with slack drawn tight enough that many are infeasible:

* an infeasible window comes back marked infeasible, yet its schedule
  honours every *relaxed* deadline ("do your best" still schedules safely);
* a feasible window's schedule meets every original deadline.
"""

from __future__ import annotations

import random

from repro.core.optimizer.ilp import BranchAndBoundSolver, relax_infeasible_deadlines
from repro.core.optimizer.schedule import EventSpec
from repro.hardware.acmp import AcmpConfig
from repro.schedulers.base import ConfigOption

N_TRIALS = 300


def random_aligned_instance(rng: random.Random, *, feasible_bias: bool):
    """A window whose latencies, releases and deadlines are whole milliseconds."""
    n = rng.randint(1, 5)
    specs = []
    clock = float(rng.randint(0, 100))
    release = clock
    for i in range(n):
        options = [
            ConfigOption(
                AcmpConfig("A15", 200 + 100 * t),
                float(rng.randint(1, 60)),
                rng.uniform(0.2, 4.0),
            )
            for t in range(rng.randint(1, 4))
        ]
        options.sort(key=lambda o: (o.latency_ms, o.energy_mj))
        release = release + float(rng.randint(0, 40))
        slack = rng.randint(40, 250) if feasible_bias else rng.randint(1, 60)
        specs.append(EventSpec(f"e{i}", release, release + float(slack), tuple(options)))
    return specs, clock



class TestDeadlineSafety:
    def test_never_violates_relaxed_deadlines(self):
        """On infeasible instances the solver reports infeasibility but the
        schedule it returns still honours every *relaxed* deadline."""
        rng = random.Random(0xDEAD11)
        seen_infeasible = 0
        for _ in range(N_TRIALS):
            specs, start = random_aligned_instance(rng, feasible_bias=False)
            relaxed, was_feasible = relax_infeasible_deadlines(specs, start)
            schedule = BranchAndBoundSolver().solve(specs, start)
            if not was_feasible:
                seen_infeasible += 1
                assert not schedule.feasible
            for assignment, relaxed_spec in zip(schedule.assignments, relaxed):
                assert assignment.finish_ms <= relaxed_spec.deadline_ms + 1e-9
        assert seen_infeasible > 10, "generator should produce infeasible instances"

    def test_feasible_instances_meet_original_deadlines(self):
        rng = random.Random(0xFEA51)
        checked = 0
        for _ in range(N_TRIALS):
            specs, start = random_aligned_instance(rng, feasible_bias=True)
            _, was_feasible = relax_infeasible_deadlines(specs, start)
            if not was_feasible:
                continue
            checked += 1
            schedule = BranchAndBoundSolver().solve(specs, start)
            assert schedule.feasible
            for assignment in schedule.assignments:
                assert assignment.meets_deadline
        assert checked > N_TRIALS // 2
