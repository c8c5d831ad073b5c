"""Tests for the shared utilities, notably multiprocessing start-method policy."""

from __future__ import annotations

import json
import math
import os
import pickle
import sys

import pytest

from repro.utils import (
    mp_context,
    pool_chunk_size,
    resolve_jobs,
    stable_seed,
    write_json_atomic,
    write_text_atomic,
)


class TestResolveJobs:
    def test_none_and_zero_mean_cpu_count(self):
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) == resolve_jobs(None)

    def test_positive_passthrough(self):
        assert resolve_jobs(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestMpContext:
    """Fork is only safe to prefer on Linux (issue 3 satellite)."""

    @pytest.mark.skipif(
        "fork" not in __import__("multiprocessing").get_all_start_methods(),
        reason="host has no fork start method",
    )
    def test_prefers_fork_on_linux(self, monkeypatch):
        monkeypatch.setattr(sys, "platform", "linux")
        assert mp_context().get_start_method() == "fork"

    def test_darwin_does_not_fork(self, monkeypatch):
        # CPython switched the darwin default to spawn in 3.8 because
        # forking a multi-threaded process deadlocks; the repo must not
        # override that back to fork.
        monkeypatch.setattr(sys, "platform", "darwin")
        assert mp_context().get_start_method() != "fork"

    def test_win32_does_not_fork(self, monkeypatch):
        monkeypatch.setattr(sys, "platform", "win32")
        assert mp_context().get_start_method() != "fork"


class TestSpawnSafety:
    """Pool initargs and job payloads must survive pickling (spawn start)."""

    def test_parallel_evaluator_initargs_are_picklable(
        self, setup, catalog, learner, generator
    ):
        from repro.core.pes import PesConfig
        from repro.runtime.parallel import MatrixSweep, _Simulators

        sweep = MatrixSweep(
            key="cell",
            setup=setup,
            traces=(generator.generate("cnn", seed=7),),
            schemes=("PES",),
            pes_config=PesConfig(),
        )
        restored = pickle.loads(
            pickle.dumps(_Simulators.for_sweeps([sweep], catalog, learner, encode=True))
        )
        restored_setup, config, cache_key = restored.setups["cell"]
        assert restored_setup.system.name == setup.system.name
        assert len(restored.catalog) == len(catalog)
        assert restored.learner == learner
        assert (config, cache_key) == (PesConfig(), "cell")
        assert restored.traces == {"cell": sweep.traces}
        assert restored.encode is True
        assert restored.simulators == {}

    def test_trace_job_payload_is_picklable(self, generator):
        trace = generator.generate("cnn", seed=7)
        index, scheme, restored = pickle.loads(pickle.dumps((3, "EBS", trace)))
        assert (index, scheme) == (3, "EBS")
        assert restored == trace

    def test_worker_functions_importable_by_reference(self):
        # Spawned workers re-import the entry points; a lambda or closure
        # here would break every non-fork platform.
        from repro.runtime import parallel

        for fn in (parallel._init_matrix_worker, parallel._run_matrix_units):
            module = sys.modules[fn.__module__]
            assert getattr(module, fn.__qualname__) is fn


class TestStableSeed:
    def test_deterministic_and_nonzero(self):
        assert stable_seed("cnn", 1) == stable_seed("cnn", 1)
        assert stable_seed("cnn", 1) != stable_seed("cnn", 2)
        assert stable_seed("cnn", 1) > 0

    def test_chunk_size_bounds(self):
        assert pool_chunk_size(0, 4) == 1
        assert pool_chunk_size(1000, 4) >= 1


class TestAtomicWrites:
    """The audited writer every artefact routes through (ART-ATOMIC)."""

    def test_write_text_atomic_round_trip(self, tmp_path):
        out = tmp_path / "nested" / "dir" / "a.txt"
        returned = write_text_atomic("hello\n", out)
        assert returned == out
        assert out.read_text() == "hello\n"
        # No temp debris once the replace landed.
        assert list(out.parent.iterdir()) == [out]

    def test_write_json_atomic_formats(self, tmp_path):
        pretty = write_json_atomic({"a": 1}, tmp_path / "pretty.json")
        assert pretty.read_text() == '{\n  "a": 1\n}\n'
        compact = write_json_atomic(
            {"a": 1}, tmp_path / "compact.json", indent=None, trailing_newline=False
        )
        assert compact.read_text() == '{"a": 1}'

    def test_write_json_atomic_rejects_non_finite_floats(self, tmp_path):
        with pytest.raises(ValueError):
            write_json_atomic({"x": math.inf}, tmp_path / "inf.json")
        assert not (tmp_path / "inf.json").exists()

    def test_fsync_happens_before_the_rename(self, tmp_path, monkeypatch):
        # Durability orders strictly: data reaches disk *before* the rename
        # makes it reachable.  Record the call order to pin the contract.
        calls: list[str] = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            "repro.utils.os.fsync", lambda fd: (calls.append("fsync"), real_fsync(fd))
        )
        monkeypatch.setattr(
            "repro.utils.os.replace",
            lambda a, b: (calls.append("replace"), real_replace(a, b)),
        )
        write_json_atomic({"a": 1}, tmp_path / "a.json")
        assert calls == ["fsync", "replace"]

    def test_crash_before_rename_leaves_old_contents(self, tmp_path, monkeypatch):
        out = tmp_path / "a.json"
        write_json_atomic({"version": 1}, out)
        monkeypatch.setattr(
            "repro.utils.os.fsync",
            lambda fd: (_ for _ in ()).throw(OSError("power loss")),
        )
        with pytest.raises(OSError):
            write_json_atomic({"version": 2}, out)
        # The visible artefact is untouched; only the temp file is partial.
        assert json.loads(out.read_text()) == {"version": 1}
