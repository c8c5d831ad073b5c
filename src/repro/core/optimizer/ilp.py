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

import math
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
    return _relax(specs, window_start_ms, [spec.fastest_option for spec in specs])


def _relax(
    specs: list[EventSpec], window_start_ms: float, fastest: list[ConfigOption]
) -> tuple[list[EventSpec], bool]:
    """:func:`relax_infeasible_deadlines` given each spec's fastest option."""
    fastest_finishes, clock = [], window_start_ms
    for spec, option in zip(specs, fastest):
        clock = max(clock, spec.release_ms) + option.latency_ms
        fastest_finishes.append(clock)
    feasible = all(f <= s.deadline_ms + 1e-9 for f, s in zip(fastest_finishes, specs))
    if feasible:
        return list(specs), True

    relaxed: list[EventSpec] = []
    previous_deadline = window_start_ms
    for spec, earliest, option in zip(specs, fastest_finishes, fastest):
        if earliest <= spec.deadline_ms + 1e-9:
            relaxed.append(spec)
        else:
            lazy_bound = max(spec.release_ms, previous_deadline) + option.latency_ms
            deadline = max(spec.deadline_ms, lazy_bound)
            # A predecessor may finish up to 1e-9 ms late, which can leave
            # the lazy bound short of this event's all-fastest finish.
            relaxed.append(
                EventSpec(
                    label=spec.label,
                    release_ms=spec.release_ms,
                    deadline_ms=deadline if earliest <= deadline + 1e-9 else earliest,
                    options=spec.options,
                )
            )
        previous_deadline = relaxed[-1].deadline_ms
    return relaxed, False


def _solver_order(options: tuple[ConfigOption, ...]) -> tuple[list[ConfigOption], ConfigOption, float]:
    """The options cheapest first (ties faster first), the fastest option and the slowest latency.

    A Pareto-ordered list (latency strictly ascending, energy strictly
    descending, as :func:`~repro.schedulers.base.enumerate_options` returns
    with ``pareto_only``) is that order reversed, with the fastest and
    slowest options at its ends; any other list is sorted.
    """
    latency, energy = float("-inf"), float("inf")
    for option in options:
        if not (option.latency_ms > latency and option.energy_mj < energy):
            break
        latency, energy = option.latency_ms, option.energy_mj
    else:
        return options[::-1], options[0], latency
    return (
        sorted(options, key=lambda o: (o.energy_mj, o.latency_ms)),
        min(options, key=lambda o: (o.latency_ms, o.energy_mj)),
        max(o.latency_ms for o in options),
    )


def _first_fit(spec: EventSpec, ordered: list[ConfigOption], clock: float) -> ConfigOption | None:
    """The first option, in solver order, that meets ``spec``'s deadline from ``clock``.

    At a window's last event it is the only option that can replace the
    best schedule: the ones after it cost at least as much.
    """
    start = max(clock, spec.release_ms)
    for option in ordered:
        if start + option.latency_ms <= spec.deadline_ms + 1e-9:
            return option
    return None


#: Most combinations of options, over every event of a window but the last,
#: that :meth:`BranchAndBoundSolver.solve` scans without frontiers.  On PES's
#: windows the scan took 0.33-0.62 of the frontier search's time up to 2,500
#: combinations (one to four events on exynos5410, one to three on
#: tegra_parker) and 1.5-3.4 times it from 13,824 (tegra_parker's four- and
#: five-event windows), so the budget sits between the two.
SCAN_BUDGET = 4096


class BranchAndBoundSolver:
    """Exact branch-and-bound over per-event configuration choices.

    Depth-first, cheapest option first; a complete schedule replaces the best
    only when cheaper by more than 1e-12 mJ, so it returns the first optimum.

    The bounds only cut subtrees that hold no cheaper schedule, so the
    result is that of a plain depth-first scan, and three shortcuts return
    exactly what the search would:

    * each event's options come in that order from :func:`_solver_order`
      (a Pareto-ordered list is reversed, not sorted);
    * at the last event only the first option that fits can replace the
      best, because the options after it cost at least as much;
    * a window with at most :data:`SCAN_BUDGET` combinations of options
      before its last event is scanned without frontiers (:meth:`_scan`):
      a one-event window takes the first option that meets its relaxed
      deadline.

    Tolerances and the frontiers of longer windows are unchanged.
    """

    def solve(self, specs: list[EventSpec], window_start_ms: float) -> Schedule:
        if not specs:
            return Schedule(assignments=(), feasible=True)
        orders = [_solver_order(spec.options) for spec in specs]
        working, feasible = _relax(specs, window_start_ms, [order[1] for order in orders])
        n = len(working)
        ordered = [order[0] for order in orders]
        if math.prod(len(options) for options in ordered[:-1]) <= SCAN_BUDGET:
            return self._schedule(specs, self._scan(working, ordered, window_start_ms), window_start_ms, feasible)

        # earliest[i], latest[i]: bounds on the clock the search reaches event
        # i with.  IEEE addition is monotone, so every clock it tries lies
        # between them.
        earliest, latest = [window_start_ms], [window_start_ms]
        for spec, (_, fastest, slowest) in zip(working[:-1], orders):
            earliest.append(max(earliest[-1], spec.release_ms) + fastest.latency_ms)
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
        last = n - 1

        def descend(index: int, clock: float, energy: float, chosen: list[ConfigOption]) -> None:
            nonlocal best_energy, best_choice
            clocks, energies = frontiers[index]
            point = bisect_left(clocks, clock)
            if point == len(clocks) or energy + energies[point] - 1e-9 >= best_energy - 1e-12:
                return
            spec = working[index]
            if index == last:
                option = _first_fit(spec, ordered[index], clock)
                if option is not None and energy + option.energy_mj < best_energy - 1e-12:
                    best_energy, best_choice = energy + option.energy_mj, chosen + [option]
                return
            start = max(clock, spec.release_ms)
            for option in ordered[index]:
                finish = start + option.latency_ms
                if finish <= spec.deadline_ms + 1e-9:
                    chosen.append(option)
                    descend(index + 1, finish, energy + option.energy_mj, chosen)
                    chosen.pop()

        descend(0, window_start_ms, 0.0, [])
        # descend calls itself through its closure cell; emptying the cell
        # breaks that cycle, so the window is freed by reference counting.
        descend = None
        return self._schedule(specs, best_choice, window_start_ms, feasible)

    @staticmethod
    def _scan(
        working: list[EventSpec], ordered: list[list[ConfigOption]], window_start_ms: float
    ) -> list[ConfigOption] | None:
        """The search's choice for a short window, by a depth-first scan without frontiers.

        An option is skipped, with every costlier one after it, once its
        energy plus the cheapest energy of each later event (``rest``, with
        the search's 1e-9 mJ of slack) cannot beat the best.
        """
        last = len(working) - 1
        rest = [0.0]
        for options in reversed(ordered[1:]):
            rest.append(rest[-1] + options[0].energy_mj)
        rest.reverse()
        best_energy = float("inf")
        best_choice: list[ConfigOption] | None = None

        def visit(index: int, clock: float, energy: float, chosen: list[ConfigOption]) -> None:
            nonlocal best_energy, best_choice
            spec = working[index]
            if index == last:
                option = _first_fit(spec, ordered[index], clock)
                if option is not None and energy + option.energy_mj < best_energy - 1e-12:
                    best_energy, best_choice = energy + option.energy_mj, chosen + [option]
                return
            start = max(clock, spec.release_ms)
            for option in ordered[index]:
                total = energy + option.energy_mj
                if total + rest[index] - 1e-9 >= best_energy - 1e-12:
                    return
                finish = start + option.latency_ms
                if finish <= spec.deadline_ms + 1e-9:
                    visit(index + 1, finish, total, chosen + [option])

        visit(0, window_start_ms, 0.0, [])
        visit = None  # break the closure's cycle, as in solve
        return best_choice

    @staticmethod
    def _schedule(
        specs: list[EventSpec],
        choice: list[ConfigOption] | None,
        window_start_ms: float,
        feasible: bool,
    ) -> Schedule:
        if choice is None:
            # relax_infeasible_deadlines makes the all-fastest schedule pass
            # the deadline test, so the search always reaches a leaf.
            raise RuntimeError(f"no schedule for the {len(specs)}-event window at {window_start_ms!r} ms")
        assignments = simulate_order(specs, choice, window_start_ms)
        feasible = feasible and all(a.meets_deadline for a in assignments)
        return Schedule(assignments=assignments, feasible=feasible)

