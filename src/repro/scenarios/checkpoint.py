"""Crash-tolerant checkpointing for matrix runs.

Both journals are append-only JSON-lines files next to the final artefact.
Each record is one line, written with one ``write`` call on an ``O_APPEND``
descriptor and then ``fsync``-ed before the next record is made.

A :class:`MatrixJournal` records every scenario as it finishes (the
``on_sweep_complete`` hook of
:meth:`~repro.runtime.parallel.ParallelEvaluator.evaluate_matrix`): one
line holding the scenario's fully-serialised
:class:`~repro.scenarios.runner.ScenarioResult`.  Re-running with
``--resume`` skips those cells.

A :class:`ShardJournal` checkpoints one level finer: *within* a cell, per
(scheme, trace) shard.  Records look like::

    {"kind": "shard", "cell": "<cell key>", "shard": "<shard key>", "payload": {...}}
    {"kind": "cell", "cell": "<cell key>", "payload": {...}}

A shard payload is the whole session in the packed codec of
:meth:`~repro.runtime.metrics.SessionResult.to_dict`.  It leads with
``"codec": "packed-f64le/1"``
(:data:`~repro.runtime.metrics.SESSION_CODEC`); the per-event floats are
little-endian float64 columns in base64, everything else short JSON lists
and scalars.  The payload text is encoded once, where the session finished
(a pool worker, or the parent at one worker), and spliced into the record
as it is.  A cell record carries whatever summary the producer scores a
finished cell with.  Scenario runs, fleet runs and the adversarial fault
search (:mod:`repro.faults.search`) all journal through one, so a run
killed mid-cell resumes without re-simulating the sessions that already
ran.  Appends happen in global job order, and
:meth:`ShardJournal.open_for_resume` truncates any torn tail before new
appends, so the resumed journal file itself is byte-identical to an
uninterrupted run's.

What survives a crash: every record whose line, newline included, reached
the file.  The record being written when the process died is lost, and
so is its session, which simply re-simulates.  Three rules make resume
safe:

* **Torn tails are dropped, not fatal.**  A crash mid-append leaves a
  truncated last line; the newline-strict scan (:func:`_scan_jsonl`) stops
  at the first line that is unparseable *or* missing its terminating
  newline — and :meth:`MatrixJournal.open_for_resume` /
  :meth:`ShardJournal.open_for_resume` truncate the torn bytes before any
  new append can concatenate onto them.
* **Stale entries are ignored by content, not position.**  A journal entry
  only counts as completed if its serialised spec matches a spec of the
  *current* run exactly, so editing the matrix between runs silently
  invalidates exactly the cells that changed.
* **Payloads of another codec are stale too.**  A shard record whose
  payload does not decode as a session of the current codec (one written
  by an earlier build, say) is dropped
  (:func:`~repro.runtime.metrics.restore_session`), and its session
  re-simulates.

Because every replay is deterministic and both payload codecs round-trip
every float exactly, a resumed run's final artefact is byte-identical to
an uninterrupted one.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.scenarios.spec import ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.scenarios.runner import ScenarioResult


class ArtefactError(RuntimeError):
    """A results artefact or journal is unreadable (truncated/corrupt JSON)."""


def _spec_key(spec_payload: dict) -> str:
    """Canonical content key for matching journal entries to current specs."""
    return json.dumps(spec_payload, sort_keys=True)


def _scan_jsonl(path: Path) -> tuple[list[dict], int]:
    """Parsed JSON-lines records plus the byte offset of the valid prefix.

    Newline-strict: a last line without its trailing ``\\n`` is torn even
    when it happens to parse as complete JSON — the crash may have cut the
    write anywhere, and a later append would concatenate onto those bytes
    and corrupt *two* records.  Scanning stops at the first torn or
    unparseable line; the offset lets ``open_for_resume`` cut the torn
    bytes off before new appends land.
    """
    if not path.exists():
        return [], 0
    records: list[dict] = []
    valid_end = 0
    with open(path, "rb") as handle:
        for raw in handle:
            if not raw.endswith(b"\n"):
                break
            stripped = raw.decode("utf-8").strip()
            if stripped:
                try:
                    records.append(json.loads(stripped))
                except json.JSONDecodeError:
                    break
            valid_end += len(raw)
    return records, valid_end


#: Flags of a journal append: create the file if needed, never overwrite.
_APPEND_FLAGS = os.O_WRONLY | os.O_APPEND | os.O_CREAT


@dataclass
class _AppendOnlyJournal:
    """One JSON-lines journal file: durable appends, torn-tail truncation."""

    path: Path

    def __post_init__(self) -> None:
        self.path = Path(self.path)

    def _append_line(self, line: str) -> None:
        """Durably append one record: one ``write`` and one ``fsync``.

        The record goes straight to an ``O_APPEND`` descriptor, with no
        buffered file object in between.  The parent directory is created
        only when the first open finds it missing.
        """
        data = (line + "\n").encode("utf-8")
        try:
            fd = os.open(self.path, _APPEND_FLAGS, 0o666)
        except FileNotFoundError:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(self.path, _APPEND_FLAGS, 0o666)
        try:
            view = memoryview(data)
            while view:  # a regular file takes the record in one write
                view = view[os.write(fd, view) :]
            os.fsync(fd)
        finally:
            os.close(fd)

    def _resume_records(self) -> list[dict]:
        """Parsed records, truncating any torn tail first.

        Appends made after this call land exactly where an uninterrupted
        run would have written them, so the resumed journal file stays
        byte-identical to an uninterrupted one, and a complete but
        unterminated last line can never be corrupted by concatenation.
        """
        records, valid_end = _scan_jsonl(self.path)
        if self.path.exists() and valid_end < self.path.stat().st_size:
            os.truncate(self.path, valid_end)
        return records

    def clear(self) -> None:
        """Delete the journal (a fresh, non-resumed run starts clean)."""
        self.path.unlink(missing_ok=True)


@dataclass
class MatrixJournal(_AppendOnlyJournal):
    """Append-only per-cell checkpoint file for a scenario matrix run."""

    def append(self, result: "ScenarioResult") -> None:
        """Durably record one completed cell (fsynced)."""
        self._append_line(json.dumps(result.to_dict(), allow_nan=False))

    def entries(self) -> list[dict]:
        """Parsed journal entries, dropping a torn tail from a mid-write crash.

        Newline-strict (see :func:`_scan_jsonl`): a final line missing its
        ``\\n`` is torn even if it parses, because a later append would
        concatenate onto it and corrupt both records.  The cell a torn
        line belonged to simply re-runs.
        """
        records, _ = _scan_jsonl(self.path)
        return records

    def open_for_resume(self) -> list[dict]:
        """:meth:`entries`, truncating any torn tail first."""
        return self._resume_records()

    def completed_results(
        self, specs: Sequence[ScenarioSpec]
    ) -> dict[str, "ScenarioResult"]:
        """Journaled results matching the given specs, keyed by spec name.

        Matching is by full serialised spec content: an entry whose spec
        does not exactly match one of ``specs`` (the matrix changed since
        the journal was written) is ignored, so its cell re-runs.
        """
        from repro.scenarios.runner import ScenarioResult

        wanted = {_spec_key(spec.to_dict()): spec.name for spec in specs}
        completed: dict[str, ScenarioResult] = {}
        for entry in self.entries():
            spec_payload = entry.get("spec")
            if not isinstance(spec_payload, dict):
                continue
            name = wanted.get(_spec_key(spec_payload))
            if name is None:
                continue
            completed[name] = ScenarioResult.from_dict(entry)
        return completed


@dataclass
class ShardJournal(_AppendOnlyJournal):
    """Append-only within-cell checkpoint file, one record per trace shard.

    Two record kinds share the JSON-lines file:

    * ``{"kind": "shard", "cell": ..., "shard": ..., "payload": ...}`` — one
      (scheme, trace) shard of a cell finished; the payload is its
      session in the packed codec of
      :meth:`~repro.runtime.metrics.SessionResult.to_dict`,
    * ``{"kind": "cell", "cell": ..., "payload": ...}`` — the whole cell
      finished; the payload is whatever summary the producer scores it with
      (the fault search stores the candidate spec and its score).

    Keys are opaque strings chosen by the producer; the fault search uses
    the candidate's canonical serialised spec (:func:`_spec_key`) as the
    cell key so stale journals invalidate by content exactly like
    :class:`MatrixJournal`.
    """

    # -- writing ----------------------------------------------------------------

    def append_shard(self, cell: str, shard: str, payload: dict | str) -> None:
        """Durably record one completed (scheme, trace) shard of a cell.

        A ``str`` payload is the payload's JSON text, already encoded where
        the session finished (:func:`~repro.runtime.metrics.encode_session`);
        it is spliced into the record as it is.  The record's bytes equal
        ``json.dumps`` of the whole record either way.
        """
        if not isinstance(payload, str):
            payload = json.dumps(payload, allow_nan=False)
        self._append_line(
            f'{{"kind": "shard", "cell": {json.dumps(cell)}, '
            f'"shard": {json.dumps(shard)}, "payload": {payload}}}'
        )

    def append_cell(self, cell: str, payload: dict) -> None:
        """Durably record a completed cell's summary."""
        self._append_line(
            json.dumps({"kind": "cell", "cell": cell, "payload": payload}, allow_nan=False)
        )

    # -- reading ----------------------------------------------------------------

    @staticmethod
    def _fold(records: list[dict]) -> tuple[dict[str, dict], dict[str, dict[str, dict]]]:
        cells: dict[str, dict] = {}
        shards: dict[str, dict[str, dict]] = {}
        for record in records:
            kind = record.get("kind")
            cell = record.get("cell")
            payload = record.get("payload")
            if not isinstance(cell, str) or not isinstance(payload, dict):
                continue
            if kind == "cell":
                cells[cell] = payload
            elif kind == "shard" and isinstance(record.get("shard"), str):
                shards.setdefault(cell, {})[record["shard"]] = payload
        return cells, shards

    def load(self) -> tuple[dict[str, dict], dict[str, dict[str, dict]]]:
        """``(cells, shards)``: payloads keyed by cell, and by cell then shard."""
        records, _ = _scan_jsonl(self.path)
        return self._fold(records)

    def open_for_resume(self) -> tuple[dict[str, dict], dict[str, dict[str, dict]]]:
        """:meth:`load`, truncating any torn tail first (see :meth:`_resume_records`)."""
        return self._fold(self._resume_records())
