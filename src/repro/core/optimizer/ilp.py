"""The exact window solver of the ILP scheduling formulation.

The paper implements its own solver rather than shipping a third-party LP
package (Sec. 5.5).  :class:`BranchAndBoundSolver` plans both PES's windows
and the Oracle's.  It explores configuration choices event by event in
execution order and prunes with a *suffix frontier*: per event, the
non-dominated (latest start clock, minimum energy) pairs that complete the
window from there.  The energy of the first pair at or after the current
clock is an exact lower bound, and no such pair means no deadline-safe
completion.

Each frontier is trimmed to the clocks the search can reach.  One forward
pass bounds the clock at which each event can start: no earlier than with
every predecessor at its fastest option, no later than with every
predecessor at its slowest option or its deadline.  Pairs before the first
one at or past the earliest clock, and after the first one at or past the
latest, never answer a query from a reachable clock, and the earlier pairs
built from them stand for finishes no schedule reaches.  Dropping them as
each frontier is built keeps every bound a valid lower bound, so the search
returns the same schedule.  On most tegra_parker windows (24–25 options per
event) this turns frontiers of tens of thousands of pairs into a handful.

:func:`relax_infeasible_deadlines` implements the "do your best" fallback
for windows containing Type I events: deadlines that cannot be met even at
maximum performance are pushed out to the earliest achievable finish time,
so the solver still returns a schedule (marked infeasible) that minimises
energy subject to minimal lateness.

``perfbench`` times the PES window solver as the ``core.optimizer.solve``
layer of its ``pes_matrix`` workload (``--trace 1`` reports the per-layer
metrics)::

    python3 perfbench/run.py --workload pes_matrix --seed 0 --seconds 40 --trace 1

and ``benchmarks/test_sec63_overheads.py`` reports the per-window solver
overhead of Sec. 6.3.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

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

        # earliest[i], latest[i]: bounds on the clock the search reaches event
        # i with.  IEEE addition is monotone, so every clock it tries lies
        # between them.
        earliest, latest = [window_start_ms], [window_start_ms]
        for spec in working[:-1]:
            earliest.append(max(earliest[-1], spec.release_ms) + spec.fastest_option.latency_ms)
            slowest = max(o.latency_ms for o in spec.options)
            latest.append(min(max(latest[-1], spec.release_ms) + slowest, spec.deadline_ms + 1e-9))

        # frontiers[i]: non-dominated (latest start clock, minimum energy) pairs
        # completing events i..n-1, as two ascending lists.  1e-6 ms of clock
        # padding and 1e-9 mJ off the bound keep rounding from over-pruning.
        frontiers = [([float("inf")], [0.0])]
        for index in range(n - 1, -1, -1):
            spec = working[index]
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
            clocks.reverse()
            energies.reverse()
            # Only the pairs a query from the reachable clocks can return.
            low = bisect_left(clocks, earliest[index])
            high = bisect_left(clocks, latest[index]) + 1
            frontiers.append((clocks[low:high], energies[low:high]))
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

