"""Unit tests for the trace data model."""

import pytest

from repro.hardware.dvfs import DvfsModel
from repro.traces.trace import Trace, TraceEvent, TraceSet
from repro.webapp.events import EventType


def make_event(index: int, arrival: float, event_type: EventType = EventType.CLICK) -> TraceEvent:
    return TraceEvent(
        index=index,
        event_type=event_type,
        node_id="node",
        arrival_ms=arrival,
        workload=DvfsModel(tmem_ms=10.0, ndep_mcycles=100.0),
    )


class TestTraceEvent:
    def test_deadline_is_arrival_plus_qos(self):
        event = make_event(0, 1000.0, EventType.CLICK)
        assert event.deadline_ms == pytest.approx(1300.0)

    def test_rejects_negative_index_or_arrival(self):
        with pytest.raises(ValueError):
            make_event(-1, 0.0)
        with pytest.raises(ValueError):
            make_event(0, -5.0)


class TestTrace:
    def test_requires_consecutive_indices(self):
        with pytest.raises(ValueError):
            Trace("cnn", "u", [make_event(0, 0.0), make_event(2, 10.0)])

    def test_requires_sorted_arrivals(self):
        with pytest.raises(ValueError):
            Trace("cnn", "u", [make_event(0, 10.0), make_event(1, 5.0)])

    def test_duration_and_len(self):
        trace = Trace("cnn", "u", [make_event(0, 0.0), make_event(1, 500.0)])
        assert len(trace) == 2
        assert trace.duration_ms == pytest.approx(500.0)

    def test_empty_trace_duration(self):
        assert Trace("cnn", "u", []).duration_ms == 0.0


class TestTraceSet:
    def test_grouping_by_app(self):
        traces = TraceSet()
        traces.add(Trace("cnn", "a", [make_event(0, 0.0)]))
        traces.add(Trace("bbc", "b", [make_event(0, 0.0)]))
        traces.add(Trace("cnn", "c", [make_event(0, 0.0), make_event(1, 1.0)]))
        assert len(traces) == 3
        assert traces.total_events == 4
        assert len(traces.for_app("cnn")) == 2
