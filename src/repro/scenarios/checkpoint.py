"""Crash-tolerant checkpointing for matrix runs.

A :class:`MatrixJournal` is an append-only JSON-lines file sitting next to
the final artefact: every time a scenario cell finishes (the
``on_sweep_complete`` hook of
:meth:`~repro.runtime.parallel.ParallelEvaluator.evaluate_matrix`), its
fully-serialised :class:`~repro.scenarios.runner.ScenarioResult` is
appended and fsynced.  If the run dies — worker crash, OOM kill, Ctrl-C —
the journal holds every completed cell; re-running with ``--resume`` skips
those cells and replays only the remainder.

A :class:`ShardJournal` checkpoints one level finer: *within* a cell, per
(scheme, trace) shard.  Each shard record carries the shard's complete
serialised :class:`~repro.runtime.metrics.SessionResult`, and each cell
record carries whatever summary the producer scores a finished cell with.
The adversarial fault search (:mod:`repro.faults.search`) journals every
candidate through one, so a search killed mid-candidate resumes without
re-simulating the shards that already ran — and, because appends happen in
a deterministic order and :meth:`ShardJournal.open_for_resume` truncates
any torn tail before new appends, the resumed journal file itself is
byte-identical to an uninterrupted run's.

Two properties make resume safe:

* **Torn tails are dropped, not fatal.**  A crash mid-append leaves a
  truncated last line; the newline-strict scan (:func:`_scan_jsonl`) stops
  at the first line that is unparseable *or* missing its terminating
  newline, so that cell simply re-runs — and
  :meth:`MatrixJournal.open_for_resume` /
  :meth:`ShardJournal.open_for_resume` truncate the torn bytes before any
  new append can concatenate onto them.
* **Stale entries are ignored by content, not position.**  A journal entry
  only counts as completed if its serialised spec matches a spec of the
  *current* run exactly, so editing the matrix between runs silently
  invalidates exactly the cells that changed.

Because every replay is deterministic and
:meth:`~repro.scenarios.runner.ScenarioResult.to_dict` round-trips
losslessly through JSON, a resumed run's final artefact is byte-identical
to an uninterrupted one.
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


@dataclass
class MatrixJournal:
    """Append-only per-cell checkpoint file for a scenario matrix run."""

    path: Path

    def __post_init__(self) -> None:
        self.path = Path(self.path)

    def append(self, result: "ScenarioResult") -> None:
        """Durably record one completed cell (flushed and fsynced)."""
        line = json.dumps(result.to_dict(), allow_nan=False)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

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
        """:meth:`entries`, truncating any torn tail first.

        Called at the start of a resumed run so that subsequent
        :meth:`append` calls land exactly where an uninterrupted run would
        have written them — the resumed journal file stays byte-identical
        to an uninterrupted one, and a complete-but-unterminated last line
        can never be corrupted by concatenation.
        """
        records, valid_end = _scan_jsonl(self.path)
        if self.path.exists() and valid_end < self.path.stat().st_size:
            with open(self.path, "rb+") as handle:
                handle.truncate(valid_end)
        return records

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

    def clear(self) -> None:
        """Delete the journal (a fresh, non-resumed run starts clean)."""
        self.path.unlink(missing_ok=True)


@dataclass
class ShardJournal:
    """Append-only within-cell checkpoint file, one record per trace shard.

    Two record kinds share the JSON-lines file:

    * ``{"kind": "shard", "cell": ..., "shard": ..., "payload": ...}`` — one
      (scheme, trace) shard of a cell finished; the payload is its
      serialised :class:`~repro.runtime.metrics.SessionResult`,
    * ``{"kind": "cell", "cell": ..., "payload": ...}`` — the whole cell
      finished; the payload is whatever summary the producer scores it with
      (the fault search stores the candidate spec and its score).

    Keys are opaque strings chosen by the producer; the fault search uses
    the candidate's canonical serialised spec (:func:`_spec_key`) as the
    cell key so stale journals invalidate by content exactly like
    :class:`MatrixJournal`.
    """

    path: Path

    def __post_init__(self) -> None:
        self.path = Path(self.path)

    # -- writing ----------------------------------------------------------------

    def _append(self, record: dict) -> None:
        line = json.dumps(record, allow_nan=False)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def append_shard(self, cell: str, shard: str, payload: dict) -> None:
        """Durably record one completed (scheme, trace) shard of a cell."""
        self._append({"kind": "shard", "cell": cell, "shard": shard, "payload": payload})

    def append_cell(self, cell: str, payload: dict) -> None:
        """Durably record a completed cell's summary."""
        self._append({"kind": "cell", "cell": cell, "payload": payload})

    # -- reading ----------------------------------------------------------------

    def _scan(self) -> tuple[list[dict], int]:
        """Parsed records plus the byte offset where the valid prefix ends.

        Delegates to :func:`_scan_jsonl` — the same newline-strict scan
        :class:`MatrixJournal` uses.
        """
        return _scan_jsonl(self.path)

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
        records, _ = self._scan()
        return self._fold(records)

    def open_for_resume(self) -> tuple[dict[str, dict], dict[str, dict[str, dict]]]:
        """:meth:`load`, truncating any torn tail first.

        Appends made after this call land exactly where an uninterrupted
        run would have written them, which is what makes a resumed journal
        file byte-identical to an uninterrupted one.
        """
        records, valid_end = self._scan()
        if self.path.exists() and valid_end < self.path.stat().st_size:
            with open(self.path, "rb+") as handle:
                handle.truncate(valid_end)
        return self._fold(records)

    def clear(self) -> None:
        """Delete the journal (a fresh, non-resumed run starts clean)."""
        self.path.unlink(missing_ok=True)
