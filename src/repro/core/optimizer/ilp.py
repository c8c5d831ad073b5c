"""Custom solvers for the ILP scheduling formulation.

The paper implements its own solver rather than shipping a third-party LP
package (Sec. 5.5).  Two solvers are provided here:

* :class:`BranchAndBoundSolver` — exact; PES plans its windows with it.  It
  explores configuration choices event by event in execution order and
  prunes with a *suffix frontier*: per event, the non-dominated (latest
  start clock, minimum energy) pairs that complete the window from there.
  The energy of the first pair at or after the current clock is an exact
  lower bound, and no such pair means no deadline-safe completion.
* :class:`DynamicProgrammingSolver` — a fast approximation that discretises
  the timeline and keeps, per finish-time bucket, the cheapest way to reach
  it.  The Oracle plans its 48-event windows with it: on tegra_parker, with
  24–25 options per event, the exact solver's time per window is
  heavy-tailed (measurements in ROADMAP item 1).  It matches the exact
  solver's energy on bucket-aligned instances and rounds finishes up
  elsewhere.

:func:`relax_infeasible_deadlines` implements the "do your best" fallback
for windows containing Type I events: deadlines that cannot be met even at
maximum performance are pushed out to the earliest achievable finish time,
so the solver still returns a schedule (marked infeasible) that minimises
energy subject to minimal lateness.

Performance
-----------
``DynamicProgrammingSolver.solve`` plans every Oracle window, so it works
on an **integer bucket lattice**:

* a DP state is an integer bucket index relative to the window start
  (``finish = window_start + bucket * bucket_ms``), never a quantised
  float, so the inner loop is integer arithmetic with no function calls;
* the frontier is kept as **sorted parallel lists** (bucket indices
  ascending, energies strictly decreasing), which makes dominance pruning
  a single linear sweep and lets states that start before an event's
  release time collapse into one representative via ``bisect``;
* paths are reconstructed from **backpointers** into a node arena instead
  of concatenating ``choices + (option,)`` tuples per transition, removing
  the O(n²) allocation churn of the seed implementation.

On the profiled 4-app oracle workload this is ~27× faster than the seed
solver (0.35 → 9.7 whole-trace solves/s on windows of 31–48 events) with
bit-identical schedules (see ``tests/test_optimizer_equivalence.py``).
``perfbench`` times the PES window solver, :class:`BranchAndBoundSolver`,
as the ``core.optimizer.solve`` layer of its ``pes_matrix`` workload
(``--trace 1`` reports the per-layer metrics)::

    python3 perfbench/run.py --workload pes_matrix --seed 0 --seconds 40 --trace 1

and ``benchmarks/test_sec63_overheads.py`` reports the per-window solver
overhead of Sec. 6.3.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from repro.core.optimizer.schedule import EventSpec, Schedule, simulate_order
from repro.schedulers.base import ConfigOption


def relax_infeasible_deadlines(
    specs: list[EventSpec], window_start_ms: float
) -> tuple[list[EventSpec], bool]:
    """Push impossible deadlines out so the window always has a solution.

    A window is infeasible when some event cannot meet its deadline even
    with every event at maximum performance (a Type I event, or a deadline
    tighter than the unavoidable work of its predecessors).  Such deadlines
    are replaced by a *lazy-predecessor* bound: the time the event could
    finish at maximum performance if every predecessor merely met its own
    (possibly relaxed) deadline.  This keeps the relaxed instance feasible
    by construction without dragging the predecessors' configurations to
    maximum performance — they are still scheduled against their own
    deadlines, so one impossible event does not distort the energy of the
    whole window.

    Returns the (possibly rewritten) specs and whether the original
    instance was feasible.
    """
    fastest_finishes, clock = [], window_start_ms
    for spec in specs:
        clock = max(clock, spec.release_ms) + spec.fastest_option.latency_ms
        fastest_finishes.append(clock)
    feasible = all(f <= s.deadline_ms + 1e-9 for f, s in zip(fastest_finishes, specs))
    if feasible:
        return list(specs), True

    relaxed: list[EventSpec] = []
    previous_deadline = window_start_ms
    for spec, earliest in zip(specs, fastest_finishes):
        if earliest <= spec.deadline_ms + 1e-9:
            relaxed.append(spec)
        else:
            lazy_bound = max(spec.release_ms, previous_deadline) + spec.fastest_option.latency_ms
            deadline = max(spec.deadline_ms, lazy_bound)
            # A predecessor may finish up to 1e-9 ms late, which can leave
            # the lazy bound short of this event's all-fastest finish.
            relaxed.append(
                EventSpec(
                    label=spec.label,
                    release_ms=spec.release_ms,
                    deadline_ms=deadline if earliest <= deadline + 1e-9 else earliest,
                    options=spec.options,
                    speculative=spec.speculative,
                )
            )
        previous_deadline = relaxed[-1].deadline_ms
    return relaxed, False


class BranchAndBoundSolver:
    """Exact branch-and-bound over per-event configuration choices.

    Depth-first, cheapest option first; a complete schedule replaces the best
    only when cheaper by more than 1e-12 mJ, so it returns the first optimum.
    """

    def solve(self, specs: list[EventSpec], window_start_ms: float) -> Schedule:
        if not specs:
            return Schedule(assignments=(), feasible=True)
        working, feasible = relax_infeasible_deadlines(specs, window_start_ms)
        n = len(working)
        ordered = [sorted(s.options, key=lambda o: (o.energy_mj, o.latency_ms)) for s in working]

        # frontiers[i]: non-dominated (latest start clock, minimum energy) pairs
        # completing events i..n-1, as two ascending lists.  1e-6 ms of clock
        # padding and 1e-9 mJ off the bound keep rounding from over-pruning.
        frontiers = [([float("inf")], [0.0])]
        for spec in reversed(working):
            later_clocks, later_energies = frontiers[-1]
            limit = spec.deadline_ms + 1e-9
            cut = bisect_right(later_clocks, limit)
            # Pairs up to the deadline, plus the first one past it clipped to it.
            points = zip(later_clocks[:cut] + [limit], later_energies[: cut + 1])
            # Negated clocks, so a plain sort walks from the latest start down.
            candidates = sorted(
                (-(clock - o.latency_ms + 1e-6), energy + o.energy_mj)
                for clock, energy in points
                for o in spec.options
                if spec.release_ms + o.latency_ms <= clock
            )
            clocks, energies = [], []
            for neg_clock, energy in candidates:
                if not energies or energy < energies[-1]:
                    clocks.append(-neg_clock)
                    energies.append(energy)
            frontiers.append((clocks[::-1], energies[::-1]))
        frontiers.reverse()

        best_energy = float("inf")
        best_choice: list[ConfigOption] | None = None

        def descend(index: int, clock: float, energy: float, chosen: list[ConfigOption]) -> None:
            nonlocal best_energy, best_choice
            if index == n:
                if energy < best_energy - 1e-12:
                    best_energy, best_choice = energy, list(chosen)
                return
            clocks, energies = frontiers[index]
            point = bisect_left(clocks, clock)
            if point == len(clocks) or energy + energies[point] - 1e-9 >= best_energy - 1e-12:
                return
            spec = working[index]
            start = max(clock, spec.release_ms)
            for option in ordered[index]:
                finish = start + option.latency_ms
                if finish <= spec.deadline_ms + 1e-9:
                    chosen.append(option)
                    descend(index + 1, finish, energy + option.energy_mj, chosen)
                    chosen.pop()

        descend(0, window_start_ms, 0.0, [])
        if best_choice is None:
            # relax_infeasible_deadlines makes the all-fastest schedule pass
            # the deadline test, so the search always reaches a leaf.
            raise RuntimeError(f"no schedule for the {n}-event window at {window_start_ms!r} ms")
        assignments = simulate_order(specs, best_choice, window_start_ms)
        feasible = feasible and all(a.meets_deadline for a in assignments)
        return Schedule(assignments=assignments, feasible=feasible)


@dataclass
class DynamicProgrammingSolver:
    """Time-discretised dynamic program over (event index, finish bucket).

    States live on an integer bucket lattice anchored at the window start:
    bucket ``b`` represents a finish time of ``window_start + b * bucket_ms``,
    rounded *up* so the DP never claims a finish earlier than reality and its
    schedules remain deadline-safe.  The frontier after each event is three
    parallel lists sorted by bucket index with strictly decreasing energies
    (every dominated state pruned), and each state carries a backpointer into
    a node arena from which the chosen options are reconstructed at the end.
    """

    bucket_ms: float = 2.0

    def __post_init__(self) -> None:
        if self.bucket_ms <= 0:
            raise ValueError("bucket_ms must be positive")

    def solve(self, specs: list[EventSpec], window_start_ms: float) -> Schedule:
        if not specs:
            return Schedule(assignments=(), feasible=True)
        working, feasible = relax_infeasible_deadlines(specs, window_start_ms)

        bucket = self.bucket_ms
        round_guard = bucket - 1e-9

        # Frontier: parallel arrays sorted by bucket index ascending with
        # strictly decreasing energies (every dominated state pruned).
        # ``nodes`` holds per-state backpointers into the arena; the root
        # state points at -1.
        bucket_arr = np.zeros(1, dtype=np.int64)
        energy_arr = np.zeros(1, dtype=np.float64)
        nodes: list[int] = [-1]
        arena_options: list[ConfigOption] = []
        arena_parents: list[int] = []

        for spec in working:
            release = spec.release_ms
            deadline = spec.deadline_ms + 1e-9
            # Ascending latency; every option's lattice shift is the constant
            # ``delta`` buckets its latency rounds up to.
            option_data = sorted(
                ((o.latency_ms, o.energy_mj, int((o.latency_ms + round_guard) // bucket), o)
                 for o in spec.options),
                key=lambda item: (item[0], item[1]),
            )

            n_states = len(bucket_arr)
            # Lattice clocks and starts (all frontier states sit on the lattice).
            start_arr = window_start_ms + bucket_arr * bucket

            # Every state whose clock is at or before the release time starts
            # at the release time and yields identical transitions; only the
            # cheapest such state (the last one, energies being decreasing)
            # can win, so collapse the prefix to that single representative.
            first = int(np.searchsorted(start_arr, release, side="right"))
            # Repair any float disagreement so the prefix/suffix split matches
            # the ``clock > release`` test exactly.
            while first < n_states and start_arr[first] <= release:
                first += 1
            while first > 0 and start_arr[first - 1] > release:
                first -= 1
            scan_from = first - 1 if first > 0 else 0

            # -- prefix representative (start pinned at the release time) ----
            prefix_candidates: list[tuple[int, float, int]] = []
            if first > 0:
                start = release
                energy = float(energy_arr[scan_from])
                for j, (latency, option_energy, _delta, _option) in enumerate(option_data):
                    finish = start + latency
                    if finish > deadline:
                        continue
                    key = int((finish - window_start_ms + round_guard) // bucket)
                    if key < 0:
                        key = 0
                    prefix_candidates.append((key, energy + option_energy, j))

            # -- per-option feasibility cut over the lattice states ----------
            cuts: list[int] = []
            key_min: int | None = None
            key_max: int | None = None
            for latency, _option_energy, delta, _option in option_data:
                cut = int(np.searchsorted(start_arr, deadline - latency, side="right"))
                # Repair to the exact ``start + latency > deadline`` test.
                while cut < n_states and start_arr[cut] + latency <= deadline:
                    cut += 1
                while cut > 0 and start_arr[cut - 1] + latency > deadline:
                    cut -= 1
                cuts.append(cut)
                if cut > first:
                    low = int(bucket_arr[first]) + delta
                    high = int(bucket_arr[cut - 1]) + delta
                    key_min = low if key_min is None or low < key_min else key_min
                    key_max = high if key_max is None or high > key_max else key_max
            for key, _total, _j in prefix_candidates:
                key_min = key if key_min is None or key < key_min else key_min
                key_max = key if key_max is None or key > key_max else key_max

            if key_min is None:
                # No feasible continuation (rounding finishes up to the bucket
                # can lose the all-fastest schedule): run every event at
                # maximum performance.
                best = [spec2.fastest_option for spec2 in working]
                assignments = simulate_order(specs, best, window_start_ms)
                return Schedule(assignments=assignments, feasible=False)

            span = key_max - key_min + 1
            best_energy_arr = np.full(span, np.inf, dtype=np.float64)
            winner_option = np.full(span, -1, dtype=np.int64)
            winner_state = np.full(span, -1, dtype=np.int64)

            for key, total, j in prefix_candidates:
                idx = key - key_min
                if total < best_energy_arr[idx]:
                    best_energy_arr[idx] = total
                    winner_option[idx] = j
                    winner_state[idx] = scan_from

            for j, (_latency, option_energy, delta, _option) in enumerate(option_data):
                cut = cuts[j]
                if cut <= first:
                    continue
                # Within one option the target keys are strictly increasing,
                # so the fancy-indexed compare-and-store below has no
                # intra-option collisions; across options the sequential
                # strict ``<`` keeps the cheapest candidate per key.
                keys = bucket_arr[first:cut] + (delta - key_min)
                totals = energy_arr[first:cut] + option_energy
                current = best_energy_arr[keys]
                improved = totals < current
                if improved.any():
                    hit = keys[improved]
                    best_energy_arr[hit] = totals[improved]
                    winner_option[hit] = j
                    winner_state[hit] = np.nonzero(improved)[0] + first

            # Dominance prune in one linear sweep over ascending keys,
            # keeping only strict energy improvements; survivors (and only
            # survivors) get arena nodes recording (option, parent).
            best_list = best_energy_arr.tolist()
            option_ids = winner_option.tolist()
            state_ids = winner_state.tolist()
            new_buckets: list[int] = []
            new_energies: list[float] = []
            new_nodes: list[int] = []
            best_energy = float("inf")
            for idx in range(span):
                energy = best_list[idx]
                if energy < best_energy - 1e-12:
                    new_buckets.append(idx + key_min)
                    new_energies.append(energy)
                    new_nodes.append(len(arena_options))
                    arena_options.append(option_data[option_ids[idx]][3])
                    arena_parents.append(nodes[state_ids[idx]])
                    best_energy = energy

            bucket_arr = np.asarray(new_buckets, dtype=np.int64)
            energy_arr = np.asarray(new_energies, dtype=np.float64)
            nodes = new_nodes

        # After pruning, energies decrease with bucket index: the last state
        # is the cheapest.  Walk its backpointer chain to recover the options.
        choices: list[ConfigOption] = []
        node = nodes[-1]
        while node != -1:
            choices.append(arena_options[node])
            node = arena_parents[node]
        choices.reverse()

        assignments = simulate_order(specs, choices, window_start_ms)
        feasible = feasible and all(a.meets_deadline for a in assignments)
        return Schedule(assignments=assignments, feasible=feasible)
