"""Small shared utilities."""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a worker-count request: ``None``/``0`` means one per CPU."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 1:
        raise ValueError("jobs must be a positive integer (or None for one per CPU)")
    return jobs


def default_results_dir() -> Path:
    """The repo's ``results/`` when running from a checkout, else ``./results``.

    Resolving relative to ``__file__`` would point inside site-packages for
    an installed distribution and silently drop the artefacts there.
    """
    checkout = Path(__file__).resolve().parent.parent.parent
    if (checkout / "benchmarks").is_dir() and (checkout / "src").is_dir():
        return checkout / "results"
    return Path.cwd() / "results"


def mp_context():
    """The multiprocessing context every pool in the repo should use.

    Prefers ``fork`` on Linux only (cheap start-up, workers inherit the
    imported package and warm caches).  Everywhere else the platform
    default is used: forking a multi-threaded process is unsafe on macOS
    (CPython itself switched the darwin default to ``spawn`` in 3.8), and
    Windows never had fork — so all pool initializers and job payloads in
    this repo must stay picklable (spawn-safe) rather than relying on
    inherited module state.
    """
    import multiprocessing
    import sys

    methods = multiprocessing.get_all_start_methods()
    if sys.platform == "linux" and "fork" in methods:
        return multiprocessing.get_context("fork")
    # Explicitly spawn elsewhere: get_context() would return the *host*
    # default, which may still be fork on exotic POSIX platforms.
    return multiprocessing.get_context("spawn" if "spawn" in methods else None)


def pool_chunk_size(n_items: int, workers: int) -> int:
    """Chunk size giving each worker ~8 chunks to steal.

    More chunks = finer work stealing (better load balance); fewer chunks =
    less IPC overhead.
    """
    return max(1, n_items // (workers * 8))


class ValidatedRecord:
    """First base of a ``namedtuple`` subclass whose ``__new__`` validates or derives fields.

    The records a replay builds once per event or per round are tuples:
    immutable, without a per-instance ``__dict__``, and cheap to build.
    ``namedtuple``'s own ``_make`` (and so ``_replace``) builds the tuple
    directly; this one goes through ``__new__``, so no construction path
    skips its checks.  Pickling and copying call ``__new__`` too.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def write_text_atomic(text: str, path: Path | str) -> Path:
    """Crash-safe file write: temp sibling, flush + fsync, ``os.replace``.

    Readers either see the complete old contents or the complete new
    contents, never a truncated mix — including across power loss, because
    the data is fsynced *before* the rename makes it reachable.  Every
    artefact writer in the repo routes through here (enforced by the
    ``ART-ATOMIC`` lint rule).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def write_json_atomic(
    payload: object,
    path: Path | str,
    *,
    indent: int | None = 2,
    trailing_newline: bool = True,
) -> Path:
    """Serialise ``payload`` as JSON and write it via :func:`write_text_atomic`.

    NaN and infinity raise ``ValueError``: JSON has no spelling for them.
    """
    text = json.dumps(payload, indent=indent, allow_nan=False)
    if trailing_newline:
        text += "\n"
    return write_text_atomic(text, path)


def stable_seed(*parts: object) -> int:
    """Deterministic 32-bit seed derived from the given parts.

    ``hash()`` is randomised per interpreter process for strings, so it must
    not be used to seed anything that needs to be reproducible across runs
    (trace generation, DOM layouts, benchmarks).  This helper hashes the
    ``repr`` of each part with MD5 and folds the digest to 32 bits.
    """
    digest = hashlib.md5("|".join(repr(part) for part in parts).encode("utf-8")).digest()
    seed = int.from_bytes(digest[:4], "little")
    return seed or 1
