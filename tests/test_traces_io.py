"""Unit tests for trace serialisation."""

import json

import pytest

from repro.traces.io import load_traces, save_traces, trace_from_dict, trace_to_dict
from repro.traces.trace import TraceSet


class TestRoundTrip:
    def test_dict_round_trip_preserves_events(self, generator):
        trace = generator.generate("cnn", seed=31)
        restored = trace_from_dict(trace_to_dict(trace))
        assert restored.app_name == trace.app_name
        assert restored.user_id == trace.user_id
        assert restored.seed == trace.seed
        assert [e.event_type for e in restored] == [e.event_type for e in trace]
        assert [e.arrival_ms for e in restored] == pytest.approx([e.arrival_ms for e in trace])
        assert [e.workload.ndep_mcycles for e in restored] == pytest.approx(
            [e.workload.ndep_mcycles for e in trace]
        )
        assert [e.navigates for e in restored] == [e.navigates for e in trace]

    def test_file_round_trip(self, generator, tmp_path):
        traces = TraceSet()
        traces.add(generator.generate("cnn", seed=1))
        traces.add(generator.generate("bbc", seed=2))
        path = tmp_path / "traces.json"
        save_traces(traces, path)
        restored = load_traces(path)
        assert len(restored) == 2
        assert [t.app_name for t in restored] == ["cnn", "bbc"]
        assert restored.total_events == traces.total_events

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99, "traces": []}))
        with pytest.raises(ValueError):
            load_traces(path)
