"""The packed session codec, and one fold per session wherever it finished.

* **Codec** — :meth:`SessionResult.to_dict` packs the per-event floats as
  little-endian float64 columns in base64.  A hypothesis property draws
  sessions with ``-0.0``, subnormals, empty outcome lists and thermal and
  fault stats, and requires the JSON round trip to return every field with
  the same type and the same bits.  Non-finite floats are refused, and a
  payload of another codec does not decode.
* **One fold per session** — each session is folded once, where it
  finished (a pool worker, or the parent at one worker); the fleet reads
  the matrix cells that fold was merged into instead of folding again.
* **Journal bytes** — workers encode the shard payloads, so the journal's
  bytes must not depend on the worker count or the hash seed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.fleet import FleetRunner, get_fleet_preset
from repro.runtime import metrics
from repro.runtime.metrics import (
    SESSION_CODEC,
    EventOutcome,
    FaultSessionStats,
    SessionResult,
    ThermalSessionStats,
    encode_session,
    restore_session,
)
from repro.scenarios.checkpoint import ShardJournal
from repro.utils import mp_context
from repro.webapp.events import EventType

#: Floats the codec must carry bit for bit, mixed into every float draw.
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308)
finite = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)
counts = st.integers(min_value=0, max_value=10**6)

outcomes = st.builds(
    EventOutcome,
    index=counts,
    event_type=st.sampled_from(list(EventType)),
    arrival_ms=finite,
    start_ms=finite,
    finish_ms=finite,
    display_ms=finite,
    qos_target_ms=finite,
    active_energy_mj=finite,
    config_label=st.text(max_size=16),
    speculative=st.booleans(),
    mispredicted=st.booleans(),
    queue_delay_ms=finite,
)
thermal_stats = st.builds(
    ThermalSessionStats,
    peak_temperature_c=finite,
    throttled_ms=finite,
    duration_ms=finite,
    throttled_events=counts,
    unthrottled_events=counts,
    throttled_latency_ms=finite,
    unthrottled_latency_ms=finite,
)
fault_stats = st.builds(
    FaultSessionStats,
    **{
        f.name: finite if f.type == "float" else counts
        for f in dataclasses.fields(FaultSessionStats)
    },
)
sessions = st.builds(
    SessionResult,
    app_name=st.text(max_size=12),
    scheduler_name=st.text(min_size=1, max_size=12),
    outcomes=st.lists(outcomes, max_size=12),
    idle_energy_mj=finite,
    wasted_energy_mj=finite,
    wasted_time_ms=finite,
    mispredictions=counts,
    commits=counts,
    predictions_made=counts,
    prediction_rounds=counts,
    pfb_size_history=st.lists(st.tuples(finite, counts), max_size=4),
    duration_ms=finite,
    thermal=st.none() | thermal_stats,
    faults=st.none() | fault_stats,
)


def exact(value):
    """``value`` with every float replaced by its bits and every leaf typed,
    so ``-0.0 != 0.0`` and ``1 != 1.0 != True`` under ``==``."""
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    if hasattr(type(value), "_fields"):  # a record tuple: keep its type and field names
        return (
            type(value).__name__,
            [(name, exact(getattr(value, name))) for name in type(value)._fields],
        )
    if isinstance(value, (list, tuple)):
        return [exact(item) for item in value]
    if dataclasses.is_dataclass(value):
        return (
            type(value).__name__,
            [(f.name, exact(getattr(value, f.name))) for f in dataclasses.fields(value)],
        )
    return (type(value).__name__, value)


def round_trip(result: SessionResult) -> SessionResult:
    return SessionResult.from_dict(json.loads(json.dumps(result.to_dict())))


class TestPackedCodec:
    @settings(max_examples=60, deadline=None)
    @given(result=sessions)
    def test_round_trip_is_exact_field_by_field(self, result):
        restored = round_trip(result)
        assert exact(restored) == exact(result)
        # Re-encoding the restored session gives the same text.
        assert encode_session(restored) == encode_session(result)

    def test_payload_carries_the_codec_tag_and_packed_floats(self):
        outcome = EventOutcome(0, EventType.CLICK, 1.0, 2.0, 3.0, 20.0, 100.0, 5.0, "<A15>")
        payload = SessionResult("cnn", "EBS", [outcome, outcome]).to_dict()
        assert next(iter(payload)) == "codec"
        assert payload["codec"] == SESSION_CODEC
        packed = payload["outcomes"]
        assert packed["event_type"] == ["click", "click"]
        assert packed["speculative"] == [0, 0]
        # Seven float64 columns of two events each.
        assert len(packed["floats"]) == math.ceil(7 * 2 * 8 / 3) * 4

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", metrics._PACKED_FLOATS)
    def test_non_finite_outcome_floats_are_refused(self, field, bad):
        outcome = EventOutcome(0, EventType.CLICK, 1.0, 2.0, 3.0, 20.0, 100.0, 5.0, "<A15>")
        result = SessionResult("cnn", "EBS", [outcome._replace(**{field: bad})])
        with pytest.raises(ValueError, match="non-finite"):
            result.to_dict()
        with pytest.raises(ValueError, match="non-finite"):
            encode_session(result)

    def test_non_finite_session_floats_are_refused(self):
        with pytest.raises(ValueError):
            encode_session(SessionResult("cnn", "EBS", idle_energy_mj=math.nan))

    def test_another_codec_does_not_decode(self):
        payload = SessionResult("cnn", "EBS").to_dict()
        rows = {**payload, "outcomes": []}
        del rows["codec"]
        with pytest.raises(ValueError, match="codec None"):
            SessionResult.from_dict(rows)
        assert restore_session(rows) is None
        with pytest.raises(ValueError, match="codec 'rows/0'"):
            SessionResult.from_dict({**payload, "codec": "rows/0"})

    def test_malformed_columns_do_not_decode(self):
        outcome = EventOutcome(0, EventType.CLICK, 1.0, 2.0, 3.0, 20.0, 100.0, 5.0, "<A15>")
        payload = SessionResult("cnn", "EBS", [outcome]).to_dict()
        short = {**payload, "outcomes": {**payload["outcomes"], "index": [0, 1]}}
        with pytest.raises(ValueError, match="different lengths"):
            SessionResult.from_dict(short)
        assert restore_session(short) is None
        assert restore_session(payload).fold.n_events == 1


def smoke_fleet(size: int):
    return dataclasses.replace(get_fleet_preset("smoke"), size=size)


class TestOneFoldPerSession:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_session_is_folded_once(self, jobs, tmp_path, monkeypatch):
        if jobs > 1 and mp_context().get_start_method() != "fork":
            pytest.skip("counting folds in pool workers needs forked workers")
        # Workers are forked, so they inherit the counting fold and append
        # one byte per call to a shared file.
        calls = tmp_path / "folds"
        fold = metrics._session_fold

        def counting_fold(result):
            with open(calls, "ab") as handle:
                handle.write(b".")
            return fold(result)

        monkeypatch.setattr(metrics, "_session_fold", counting_fold)
        fleet = smoke_fleet(20)
        result = FleetRunner(jobs=jobs).run(fleet, shards=ShardJournal(tmp_path / "f.journal"))
        n_sessions = sum(agg.n_sessions for agg in result.population.values())
        assert n_sessions == 20 * len(fleet.schemes) == 40
        assert calls.read_bytes() == b"." * n_sessions


_JOURNAL_SCRIPT = """
import dataclasses, sys
from repro.fleet import FleetRunner, get_fleet_preset
from repro.scenarios.checkpoint import ShardJournal
fleet = dataclasses.replace(get_fleet_preset("smoke"), size=6)
FleetRunner(jobs=int(sys.argv[1])).run(fleet, shards=ShardJournal(sys.argv[2]))
"""


def test_shard_journal_bytes_do_not_depend_on_jobs_or_hash_seed(tmp_path):
    src = str(Path(repro.__file__).resolve().parents[1])
    journals = []
    for jobs, seed in ((1, "1"), (2, "2")):
        path = tmp_path / f"jobs{jobs}.journal"
        env = {
            **os.environ,
            "PYTHONHASHSEED": seed,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        subprocess.run(
            [sys.executable, "-c", _JOURNAL_SCRIPT, str(jobs), str(path)],
            env=env,
            check=True,
            timeout=120,
        )
        journals.append(path.read_bytes())
    assert journals[0] == journals[1]
    records = [json.loads(line) for line in journals[0].splitlines()]
    assert len(records) == 6 * 2
    assert {record["payload"]["codec"] for record in records} == {SESSION_CODEC}
