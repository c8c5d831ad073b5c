"""Tests for the adversarial fault search and its shard-level checkpoint.

The load-bearing property is crash-tolerant determinism: a search killed
mid-candidate and resumed through its :class:`ShardJournal` must produce a
byte-identical journal file and an identical final report — same search
log, same worst-case spec — as an uninterrupted run.  That hinges on three
smaller invariants pinned here: the journal drops (and truncates) torn
tails, candidate generation replays deterministically from the seed, and
every candidate respects the fault budget after re-scaling.
"""

from __future__ import annotations

import json

import pytest

from repro.faults.search import (
    SEARCH_TARGETS,
    candidate_cost,
    get_search_target,
    list_search_targets,
    run_search,
    spec_from_knobs,
    _knobs_for,
    _random_candidate,
    _rebudget,
)
from repro.runtime.simulator import Simulator
from repro.scenarios.checkpoint import ShardJournal
from repro.scenarios.runner import ScenarioRunner

import random


@pytest.fixture(scope="module")
def runner():
    # One runner for the whole module: trace generation and (unused here)
    # learner training are the expensive parts of a search.
    return ScenarioRunner()


class TestShardJournal:
    def test_round_trips_shards_and_cells(self, tmp_path):
        journal = ShardJournal(tmp_path / "search.journal")
        journal.append_shard("cell-a", "EBS/0/cnn", {"x": 1})
        journal.append_shard("cell-a", "EBS/1/bbc", {"x": 2})
        journal.append_cell("cell-a", {"score": 0.5})
        journal.append_shard("cell-b", "EBS/0/cnn", {"x": 3})
        cells, shards = journal.load()
        assert cells == {"cell-a": {"score": 0.5}}
        assert shards == {
            "cell-a": {"EBS/0/cnn": {"x": 1}, "EBS/1/bbc": {"x": 2}},
            "cell-b": {"EBS/0/cnn": {"x": 3}},
        }

    def test_missing_file_loads_empty(self, tmp_path):
        journal = ShardJournal(tmp_path / "absent.journal")
        assert journal.load() == ({}, {})
        assert journal.open_for_resume() == ({}, {})

    def test_torn_tail_is_dropped(self, tmp_path):
        journal = ShardJournal(tmp_path / "search.journal")
        journal.append_shard("cell-a", "s0", {"x": 1})
        journal.append_shard("cell-a", "s1", {"x": 2})
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "shard", "cell": "cell-a", "sha')  # no newline
        cells, shards = journal.load()
        assert shards == {"cell-a": {"s0": {"x": 1}, "s1": {"x": 2}}}

    def test_unparseable_line_stops_the_scan(self, tmp_path):
        journal = ShardJournal(tmp_path / "search.journal")
        journal.append_shard("cell-a", "s0", {"x": 1})
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write("not json\n")
        journal.append_shard("cell-a", "s1", {"x": 2})
        _, shards = journal.load()
        # Nothing after the corrupt line can be trusted.
        assert shards == {"cell-a": {"s0": {"x": 1}}}

    def test_open_for_resume_truncates_the_torn_tail(self, tmp_path):
        journal = ShardJournal(tmp_path / "search.journal")
        journal.append_shard("cell-a", "s0", {"x": 1})
        clean_size = journal.path.stat().st_size
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"torn')
        journal.open_for_resume()
        # After truncation, new appends land exactly where an uninterrupted
        # run would have written them.
        assert journal.path.stat().st_size == clean_size

    def test_clear_removes_the_file(self, tmp_path):
        journal = ShardJournal(tmp_path / "search.journal")
        journal.append_cell("cell-a", {"score": 1.0})
        journal.clear()
        assert not journal.path.exists()
        journal.clear()  # idempotent


class TestKnobSpace:
    def test_rebudget_fits_every_candidate(self):
        knobs = _knobs_for(dynamic_thermal=True)
        rng = random.Random(3)
        for _ in range(50):
            values = _random_candidate(rng, knobs, budget=0.4)
            assert candidate_cost(values, knobs) <= 0.4 + 1e-9

    def test_rebudget_leaves_cheap_candidates_alone(self):
        knobs = _knobs_for(dynamic_thermal=False)
        values = {knob.path: 0.0 for knob in knobs}
        values["predictor.flip_rate"] = 0.1
        assert _rebudget(dict(values), knobs, budget=0.5) == values

    def test_spec_from_knobs_is_a_valid_spec(self):
        knobs = _knobs_for(dynamic_thermal=True)
        rng = random.Random(9)
        values = _random_candidate(rng, knobs, budget=0.6)
        spec = spec_from_knobs(values, name="search0000", seed=4)
        # Survives serialisation and is not a silent no-op space.
        rebuilt = json.loads(json.dumps(spec.to_dict()))
        assert rebuilt["name"] == "search0000"

    def test_sensor_knobs_gated_on_dynamic_thermal(self):
        static = {knob.path for knob in _knobs_for(dynamic_thermal=False)}
        dynamic = {knob.path for knob in _knobs_for(dynamic_thermal=True)}
        assert "sensor.stuck_rate" not in static
        assert {"sensor.stuck_rate", "sensor.noise_c"} <= dynamic

    def test_unknown_target_is_a_clear_error(self):
        with pytest.raises(KeyError, match="unknown search target"):
            get_search_target("nope")
        assert list_search_targets() == sorted(SEARCH_TARGETS)


class TestSearchedPreset:
    def test_searched_pes_stress_matches_its_regression_artefact(self):
        # The preset was mined by `faults search --target pes_regression
        # --budget-evals 24 --seed 0`; its knobs are committed verbatim, so
        # the named preset and the search artefact must stay in lockstep.
        import dataclasses
        from pathlib import Path

        from repro.faults import FaultSpec, get_fault_preset

        artefact = Path(__file__).parent.parent / "results" / "FAULT_SEARCH_pes_regression.json"
        report = json.loads(artefact.read_text())
        assert report["target"] == "pes_regression"
        # The search's headline: fault-free PES beats EBS, the worst case
        # inverts that.
        assert report["baseline"]["score"] < 1.0
        assert report["best"]["score"] > 1.0

        preset = get_fault_preset("searched_pes_stress")
        mined = FaultSpec.from_dict(report["best"]["spec"])
        normalise = lambda spec: dataclasses.replace(spec, name="x", description="")
        assert normalise(preset) == normalise(mined)


class TestRunSearch:
    def test_search_is_deterministic(self, runner):
        first = run_search("recovery_collapse", budget_evals=3, seed=5, runner=runner)
        second = run_search("recovery_collapse", budget_evals=3, seed=5, runner=runner)
        assert first == second

    def test_search_report_shape(self, runner):
        report = run_search("recovery_collapse", budget_evals=2, seed=5, runner=runner)
        assert report["target"] == "recovery_collapse"
        assert report["scenario"] == "baseline_seen"
        assert len(report["candidates"]) == 2
        assert report["candidates"][0]["accepted"] is True
        best = report["best"]
        assert best["score"] == max(c["score"] for c in report["candidates"])
        assert best["cost"] <= report["budget"] + 1e-9
        # The fault-free baseline cannot leave anything unrecovered.
        assert report["baseline"]["score"] == 0.0

    def test_search_generates_each_trace_once(self, monkeypatch, runner):
        from repro.scenarios.library import get_scenario
        from repro.traces.generator import TraceGenerator

        original = TraceGenerator.generate
        calls = {"n": 0}

        def counting(self, *args, **kwargs):
            calls["n"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(TraceGenerator, "generate", counting)
        run_search("recovery_collapse", budget_evals=3, seed=5, runner=runner)
        n_traces = len(runner.build_sweep(get_scenario("baseline_seen")).traces)
        assert calls["n"] == n_traces

    def test_invalid_arguments_are_rejected(self, runner):
        with pytest.raises(ValueError, match="budget must be non-negative"):
            run_search("recovery_collapse", budget=-0.1, runner=runner)
        with pytest.raises(ValueError, match="budget_evals"):
            run_search("recovery_collapse", budget_evals=0, runner=runner)

    def test_live_thermal_target_rejects_a_static_scenario(self, runner, monkeypatch):
        # A static-thermal scenario has no live sensor: every candidate would
        # score 0.0, so the pairing is refused before anything replays.
        def must_not_build(*args, **kwargs):
            raise AssertionError("built a sweep for a search that cannot score")

        monkeypatch.setattr(ScenarioRunner, "build_sweep", must_not_build)
        with pytest.raises(ValueError, match="needs a live-thermal scenario"):
            run_search("throttle_inflation", scenario="baseline_seen", runner=runner)

    def test_killed_search_resumes_byte_identically(self, tmp_path, monkeypatch, runner):
        kwargs = dict(budget_evals=3, seed=5, runner=runner)
        straight = ShardJournal(tmp_path / "straight.journal")
        report = run_search("recovery_collapse", journal=straight, **kwargs)

        interrupted = ShardJournal(tmp_path / "interrupted.journal")
        original = Simulator.run_scheme
        calls = {"n": 0}

        def dying(self, *args, **kw):
            calls["n"] += 1
            if calls["n"] > 5:
                raise KeyboardInterrupt
            return original(self, *args, **kw)

        monkeypatch.setattr(Simulator, "run_scheme", dying)
        with pytest.raises(KeyboardInterrupt):
            run_search("recovery_collapse", journal=interrupted, **kwargs)
        monkeypatch.setattr(Simulator, "run_scheme", original)

        # Simulate the crash tearing the last append mid-write.
        raw = interrupted.path.read_bytes()
        interrupted.path.write_bytes(raw[:-7])

        resumed = run_search(
            "recovery_collapse", journal=interrupted, resume=True, **kwargs
        )
        assert resumed == report
        assert interrupted.path.read_bytes() == straight.path.read_bytes()

    def test_resume_skips_finished_shards(self, tmp_path, runner):
        journal = ShardJournal(tmp_path / "search.journal")
        kwargs = dict(budget_evals=2, seed=5, runner=runner)
        report = run_search("recovery_collapse", journal=journal, **kwargs)
        replays = {"n": 0}
        original = Simulator.run_scheme

        def counting(self, *args, **kw):
            replays["n"] += 1
            return original(self, *args, **kw)

        Simulator.run_scheme = counting
        try:
            resumed = run_search(
                "recovery_collapse", journal=journal, resume=True, **kwargs
            )
        finally:
            Simulator.run_scheme = original
        # Every shard of every candidate (and the baseline) was journaled,
        # so a complete journal resumes without a single re-simulation.
        assert replays["n"] == 0
        assert resumed == report
