"""Equivalence guarantees for the integer-lattice DP solver.

The solver rewrite (integer bucket lattice, backpointers, vectorised
transitions) must be behaviour-preserving.  Three families of seeded
randomized tests pin that down:

* against a verbatim copy of the **pre-refactor** DP implementation, the
  new solver must return bit-identical schedules (same option objects,
  same finish times, same feasibility) on arbitrary float instances;
* against :class:`BranchAndBoundSolver` on **bucket-aligned** instances
  (every latency/release/deadline an integer multiple of the bucket, where
  time discretisation is lossless) the DP must be exactly optimal; and
* on relaxed-infeasible instances the DP must never violate a relaxed
  deadline ("do your best" still schedules safely).
"""

from __future__ import annotations

import random

import pytest

from repro.core.optimizer.ilp import (
    BranchAndBoundSolver,
    DynamicProgrammingSolver,
    relax_infeasible_deadlines,
)
from repro.core.optimizer.schedule import EventSpec, Schedule, simulate_order
from repro.hardware.acmp import AcmpConfig
from repro.schedulers.base import ConfigOption

N_TRIALS = 300


def reference_seed_dp(specs, window_start_ms, bucket_ms):
    """Verbatim pre-refactor ``DynamicProgrammingSolver.solve`` (dict of
    quantised float finish times, per-state choice-tuple concatenation)."""
    if not specs:
        return Schedule(assignments=(), feasible=True)
    working, feasible = relax_infeasible_deadlines(specs, window_start_ms)

    def quantise(t):
        buckets = int((t - window_start_ms + bucket_ms - 1e-9) // bucket_ms)
        return window_start_ms + max(buckets, 0) * bucket_ms

    frontier = {window_start_ms: (0.0, ())}
    for spec in working:
        next_frontier = {}
        for clock, (energy, choices) in frontier.items():
            start = max(clock, spec.release_ms)
            for option in spec.options:
                finish = start + option.latency_ms
                if finish > spec.deadline_ms + 1e-9:
                    continue
                key = quantise(finish)
                candidate = (energy + option.energy_mj, choices + (option,))
                incumbent = next_frontier.get(key)
                if incumbent is None or candidate[0] < incumbent[0]:
                    next_frontier[key] = candidate
        if not next_frontier:
            best = [s.fastest_option for s in working]
            assignments = simulate_order(specs, best, window_start_ms)
            return Schedule(assignments=assignments, feasible=False)
        pruned = {}
        best_energy = float("inf")
        for finish in sorted(next_frontier):
            energy, choices = next_frontier[finish]
            if energy < best_energy - 1e-12:
                pruned[finish] = (energy, choices)
                best_energy = energy
        frontier = pruned
    best_energy, best_choices = min(frontier.values(), key=lambda item: item[0])
    assignments = simulate_order(specs, list(best_choices), window_start_ms)
    feasible = feasible and all(a.meets_deadline for a in assignments)
    return Schedule(assignments=assignments, feasible=feasible)


def random_float_instance(rng: random.Random):
    """Arbitrary float latencies/deadlines; options pre-sorted by latency
    (the order ``enumerate_options`` guarantees on the real pipeline)."""
    n = rng.randint(1, 7)
    start = rng.choice([0.0, rng.uniform(0.0, 500.0)])
    clock = start
    specs = []
    for i in range(n):
        options = [
            ConfigOption(AcmpConfig("A15", 200 + 100 * t), rng.uniform(1.0, 300.0), rng.uniform(0.2, 4.0))
            for t in range(rng.randint(1, 5))
        ]
        options.sort(key=lambda o: (o.latency_ms, o.energy_mj))
        release = clock + rng.uniform(0.0, 400.0)
        deadline = release + rng.uniform(10.0, 900.0)
        specs.append(EventSpec(f"e{i}", release, deadline, tuple(options)))
    return specs, start


def random_aligned_instance(rng: random.Random, *, feasible_bias: bool):
    """Integer (bucket-aligned) instance where discretisation is lossless."""
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


class TestIdenticalToSeedSolver:
    def test_bit_identical_schedules_on_random_float_instances(self):
        rng = random.Random(0xFE2019)
        for trial in range(N_TRIALS):
            specs, start = random_float_instance(rng)
            bucket = rng.choice([0.5, 1.0, 2.0, 5.0])
            new = DynamicProgrammingSolver(bucket_ms=bucket).solve(specs, start)
            old = reference_seed_dp(specs, start, bucket)
            assert new.feasible == old.feasible, f"trial {trial}"
            assert new.total_energy_mj == pytest.approx(old.total_energy_mj, abs=1e-9), f"trial {trial}"
            for a, b in zip(new, old):
                assert a.option is b.option, f"trial {trial}: diverging option choice"
                assert a.finish_ms == b.finish_ms, f"trial {trial}: diverging timing"


class TestMatchesBranchAndBound:
    def test_identical_energy_and_feasibility_on_aligned_instances(self):
        rng = random.Random(0x15CA)
        for trial in range(N_TRIALS):
            specs, start = random_aligned_instance(rng, feasible_bias=True)
            dp = DynamicProgrammingSolver(bucket_ms=1.0).solve(specs, start)
            bb = BranchAndBoundSolver().solve(specs, start)
            assert dp.feasible == bb.feasible, f"trial {trial}"
            assert dp.total_energy_mj == pytest.approx(bb.total_energy_mj, abs=1e-9), (
                f"trial {trial}: DP {dp.total_energy_mj} vs B&B {bb.total_energy_mj}"
            )

    def test_identical_on_tight_instances(self):
        rng = random.Random(0xACE5)
        for trial in range(N_TRIALS):
            specs, start = random_aligned_instance(rng, feasible_bias=False)
            dp = DynamicProgrammingSolver(bucket_ms=1.0).solve(specs, start)
            bb = BranchAndBoundSolver().solve(specs, start)
            assert dp.feasible == bb.feasible, f"trial {trial}"
            assert dp.total_energy_mj == pytest.approx(bb.total_energy_mj, abs=1e-9), f"trial {trial}"


class TestDeadlineSafety:
    def test_never_violates_relaxed_deadlines(self):
        """On infeasible instances the solver reports infeasibility but the
        schedule it returns still honours every *relaxed* deadline."""
        rng = random.Random(0xDEAD11)
        seen_infeasible = 0
        for _ in range(N_TRIALS):
            specs, start = random_aligned_instance(rng, feasible_bias=False)
            relaxed, was_feasible = relax_infeasible_deadlines(specs, start)
            schedule = DynamicProgrammingSolver(bucket_ms=1.0).solve(specs, start)
            if not was_feasible:
                seen_infeasible += 1
                assert not schedule.feasible
            for assignment, relaxed_spec in zip(schedule, relaxed):
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
            schedule = DynamicProgrammingSolver(bucket_ms=1.0).solve(specs, start)
            assert schedule.feasible
            for assignment in schedule:
                assert assignment.meets_deadline
        assert checked > N_TRIALS // 2
