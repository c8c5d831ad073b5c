"""Data model of the constrained scheduling problem and its solutions.

The optimisation of Sec. 5.3 assigns exactly one ACMP configuration to each
scheduled event (Eqn. 2), models each event's latency with the DVFS model
(Eqn. 3), constrains each event to finish before its deadline given the
sequential execution order (Eqn. 4), and minimises total energy (Eqn. 5).

:class:`EventSpec` is one row of that problem — an event (predicted, or
known to the Oracle) with its release time, deadline, and per-configuration
latency/energy options.  :class:`Schedule` is a solved instance.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple, Sequence

from repro.schedulers.base import ConfigOption
from repro.utils import ValidatedRecord


class EventSpec(
    ValidatedRecord,
    namedtuple("EventSpec", "label release_ms deadline_ms options"),
):
    """One event of a scheduling window.

    ``release_ms`` is the earliest time the event's execution may start
    (now, for speculative execution of predicted events; the window start
    for the Oracle's known events).  ``deadline_ms`` is the absolute QoS
    deadline.  ``options`` are the candidate configurations (latency/power
    per configuration, usually Pareto-pruned).
    """

    __slots__ = ()

    def __new__(
        cls,
        label: str,
        release_ms: float,
        deadline_ms: float,
        options: tuple[ConfigOption, ...],
    ) -> EventSpec:
        if not options:
            raise ValueError(f"event {label!r} has no configuration options")
        if deadline_ms < release_ms:
            raise ValueError(f"event {label!r} has a deadline before its release time")
        return tuple.__new__(cls, (label, release_ms, deadline_ms, options))

    @property
    def fastest_option(self) -> ConfigOption:
        return min(self.options, key=lambda o: (o.latency_ms, o.energy_mj))


class Assignment(NamedTuple):
    """The chosen configuration and resulting timing for one event."""

    spec: EventSpec
    option: ConfigOption
    start_ms: float
    finish_ms: float

    @property
    def meets_deadline(self) -> bool:
        return self.finish_ms <= self.spec.deadline_ms + 1e-9

    @property
    def energy_mj(self) -> float:
        return self.option.energy_mj


class Schedule(NamedTuple):
    """A solved scheduling window."""

    assignments: tuple[Assignment, ...]
    feasible: bool

    @property
    def total_energy_mj(self) -> float:
        return sum(a.energy_mj for a in self.assignments)


def simulate_order(
    specs: Sequence[EventSpec], choices: Sequence[ConfigOption], window_start_ms: float
) -> tuple[Assignment, ...]:
    """Compute start/finish times for a fixed choice of options per event.

    Events execute sequentially on the runtime's main thread in the given
    order: each starts at the later of its release time and the previous
    event's finish.
    """
    if len(specs) != len(choices):
        raise ValueError("one option must be chosen per event spec")
    assignments: list[Assignment] = []
    clock = window_start_ms
    for spec, option in zip(specs, choices):
        start = max(clock, spec.release_ms)
        finish = start + option.latency_ms
        assignments.append(Assignment(spec=spec, option=option, start_ms=start, finish_ms=finish))
        clock = finish
    return tuple(assignments)
