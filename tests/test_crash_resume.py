"""Crash anywhere, resume, get the same bytes: ``scenarios run``, ``fleet run``
and ``faults search``, driven in-process through the CLI entry point.

A crash can stop a run between any two journal appends, or part-way
through writing one record.  So:

* one uninterrupted run per command records every journal append in
  order (``scenarios run`` interleaves its matrix and shard journals);
* a crash leaves a prefix of that sequence: cut at every record boundary,
  and at byte offsets inside a record drawn by hypothesis;
* resuming from the cut journals, at ``--jobs 1`` and ``--jobs 2``, must
  write the uninterrupted run's artefact byte for byte and clear the
  journals; just before they are cleared, each journal must hold exactly
  the uninterrupted run's bytes (so a torn tail was cut, not appended to).  ``faults search`` has no ``--jobs`` option; its resume runs
  at two workers through its ``ScenarioRunner``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import warnings
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.faults.search
from repro.cli import main
from repro.faults import get_fault_preset
from repro.scenarios.checkpoint import _AppendOnlyJournal
from repro.scenarios.library import MATRICES
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import ScenarioMatrix

#: Two reactive cells (fault-free and ``dvfs_flaky``) of six sessions each.
MINI_MATRIX = ScenarioMatrix(
    name="crash_mini",
    platforms=("exynos5410",),
    app_mixes=("news",),
    schemes=("Interactive", "EBS"),
    fault_specs=(None, get_fault_preset("dvfs_flaky")),
)

#: Each command's arguments, less ``--jobs``, ``--resume`` and ``--out``.
#: ``faults search`` has no ``--jobs``: see :func:`run_cli`.
COMMANDS = {
    "scenarios": ["scenarios", "run", "--matrix", MINI_MATRIX.name],
    "fleet": ["fleet", "run", "--fleet", "smoke", "--size", "3"],
    "faults": [
        "faults",
        "search",
        "--target",
        "recovery_collapse",
        "--scenario",
        "flash_crowd",
        "--schemes",
        "EBS",
        "--budget-evals",
        "1",
    ],
}


@dataclass(frozen=True)
class Recording:
    """One uninterrupted run: its appends, in order, and its artefact."""

    argv: list[str]
    #: (journal file name, record bytes with the newline), in append order.
    appends: list[tuple[str, bytes]]
    artefact: bytes


def run_cli(argv: list[str], jobs: int) -> None:
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        stack.enter_context(warnings.catch_warnings())
        # A resume that finds no journal (a crash before the first append) warns.
        warnings.simplefilter("ignore", RuntimeWarning)
        if argv[0] == "faults":
            patch = stack.enter_context(pytest.MonkeyPatch.context())
            patch.setattr(
                repro.faults.search,
                "ScenarioRunner",
                functools.partial(ScenarioRunner, jobs=jobs),
            )
        else:
            argv = [*argv, "--jobs", str(jobs)]
        assert main(argv) == 0


def record(argv: list[str], workdir: Path) -> Recording:
    appends: list[tuple[str, bytes]] = []
    append_line = _AppendOnlyJournal._append_line

    def recording(journal, line: str) -> None:
        appends.append((journal.path.name, (line + "\n").encode("utf-8")))
        append_line(journal, line)

    out = workdir / "out.json"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_AppendOnlyJournal, "_append_line", recording)
        run_cli([*argv, "--out", str(out)], jobs=1)
    assert sorted(path.name for path in workdir.iterdir()) == ["out.json"]
    return Recording(argv=argv, appends=appends, artefact=out.read_bytes())


def resume(recording: Recording, workdir: Path, kept: int, torn: bytes, jobs: int) -> None:
    """Leave the first ``kept`` appends plus ``torn``, the start of the next
    one, as a crash would; resume; require the uninterrupted artefact."""
    journals: dict[str, bytes] = {}
    for name, data in recording.appends[:kept]:
        journals[name] = journals.get(name, b"") + data
    if torn:
        name = recording.appends[kept][0]
        journals[name] = journals.get(name, b"") + torn
    for name, data in journals.items():
        (workdir / name).write_bytes(data)
    final: dict[str, bytes] = {}
    clear = _AppendOnlyJournal.clear

    def snapshot_and_clear(journal) -> None:
        if journal.path.exists():
            final[journal.path.name] = journal.path.read_bytes()
        clear(journal)

    out = workdir / "out.json"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_AppendOnlyJournal, "clear", snapshot_and_clear)
        run_cli([*recording.argv, "--resume", "--out", str(out)], jobs=jobs)
    assert out.read_bytes() == recording.artefact
    assert sorted(path.name for path in workdir.iterdir()) == ["out.json"]
    uninterrupted: dict[str, bytes] = {}
    for name, data in recording.appends:
        uninterrupted[name] = uninterrupted.get(name, b"") + data
    assert final == uninterrupted


@pytest.fixture(scope="module", autouse=True)
def mini_matrix():
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(MATRICES, MINI_MATRIX.name, MINI_MATRIX)
        yield


@pytest.fixture(scope="module")
def recordings(mini_matrix, tmp_path_factory) -> dict[str, Recording]:
    return {
        name: record(argv, tmp_path_factory.mktemp(f"record-{name}"))
        for name, argv in COMMANDS.items()
    }


def test_every_command_journals_both_kinds_of_step(recordings):
    journals = {name: {file for file, _ in rec.appends} for name, rec in recordings.items()}
    # scenarios run interleaves its cell journal and its shard journal.
    assert journals["scenarios"] == {"out.json.journal", "out.json.shards.journal"}
    assert journals["fleet"] == journals["faults"] == {"out.json.journal"}
    for rec in recordings.values():
        assert len(rec.appends) >= 4


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("jobs", [1, 2])
def test_resume_from_every_record_boundary(recordings, tmp_path_factory, command, jobs):
    recording = recordings[command]
    for kept in range(len(recording.appends) + 1):
        resume(recording, tmp_path_factory.mktemp("cut"), kept, b"", jobs)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_resume_from_a_torn_record(recordings, tmp_path_factory, data):
    recording = recordings[data.draw(st.sampled_from(sorted(COMMANDS)), label="command")]
    kept = data.draw(st.integers(0, len(recording.appends) - 1), label="kept")
    record_bytes = recording.appends[kept][1]
    # Anything from the first byte to all but the newline reached the disk.
    cut = data.draw(st.integers(1, len(record_bytes) - 1), label="cut")
    jobs = data.draw(st.sampled_from((1, 2)), label="jobs")
    resume(recording, tmp_path_factory.mktemp("torn"), kept, record_bytes[:cut], jobs)
