"""Trace data model: events, sessions, and collections of sessions."""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from typing import Iterator

from repro.hardware.dvfs import DvfsModel
from repro.utils import ValidatedRecord
from repro.webapp.events import EventType, qos_target_ms


class TraceEvent(
    ValidatedRecord,
    namedtuple("TraceEvent", "index event_type node_id arrival_ms workload navigates"),
):
    """One user-triggered event in an interaction session.

    ``arrival_ms`` is when the user input fires (relative to session start).
    ``workload`` is the DVFS latency model of the event's CPU work
    (callback plus rendering stages).  ``navigates`` records whether the
    event's callback replaces the document — the ground-truth effect used
    when replaying the DOM state alongside the trace.
    """

    __slots__ = ()

    def __new__(
        cls,
        index: int,
        event_type: EventType,
        node_id: str,
        arrival_ms: float,
        workload: DvfsModel,
        navigates: bool = False,
    ) -> TraceEvent:
        if index < 0:
            raise ValueError("index must be non-negative")
        if arrival_ms < 0:
            raise ValueError("arrival_ms must be non-negative")
        return tuple.__new__(cls, (index, event_type, node_id, arrival_ms, workload, navigates))

    @property
    def qos_target_ms(self) -> float:
        return qos_target_ms(self.event_type)

    @property
    def deadline_ms(self) -> float:
        """Absolute deadline: arrival plus the interaction's QoS target."""
        return self.arrival_ms + self.qos_target_ms


@dataclass
class Trace:
    """One user interaction session with one application."""

    app_name: str
    user_id: str
    events: list[TraceEvent] = field(default_factory=list)
    seed: int | None = None

    def __post_init__(self) -> None:
        self._validate()

    def _validate(self) -> None:
        last_arrival = -1.0
        for position, event in enumerate(self.events):
            if event.index != position:
                raise ValueError(
                    f"event at position {position} has index {event.index}; "
                    "trace events must be indexed consecutively from 0"
                )
            if event.arrival_ms < last_arrival:
                raise ValueError("trace events must be sorted by arrival time")
            last_arrival = event.arrival_ms

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __getitem__(self, index: int) -> TraceEvent:
        return self.events[index]

    @property
    def duration_ms(self) -> float:
        """Session duration: from t=0 to the last event's arrival."""
        if not self.events:
            return 0.0
        return self.events[-1].arrival_ms


@dataclass
class TraceSet:
    """A named collection of traces, grouped by application."""

    traces: list[Trace] = field(default_factory=list)

    def add(self, trace: Trace) -> None:
        self.traces.append(trace)

    def for_app(self, app_name: str) -> list[Trace]:
        return [t for t in self.traces if t.app_name == app_name]

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self) -> Iterator[Trace]:
        return iter(self.traces)

    @property
    def total_events(self) -> int:
        return sum(len(t) for t in self.traces)
