"""Session-level checks of pool runs: every job's shard payload text, in fold order.

``evaluate_matrix`` returns the cell aggregates only (compare them through
:func:`finalized` with :func:`aggregate_results` of in-process sessions).
To check a run session by session, run it with ``encode=True`` and collect
the payload each job hands to ``on_job_complete``; compare that with
``encode_session`` of sessions replayed in-process.  The packed codec is bit-exact, so equal payload text
means equal sessions, down to every float's bits.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping, Sequence

from repro.runtime.metrics import (
    AggregateMetrics,
    SessionResult,
    StreamingAggregator,
    StreamingSweepAggregator,
    encode_session,
)

#: ``(sweep key, scheme, trace index, payload text)`` per job, in fold order.
Payloads = list[tuple[str, str, int, str]]


def pool_payloads(evaluator, sweeps, **kwargs) -> tuple[dict, Payloads]:
    """Run ``sweeps`` through ``evaluator`` with ``encode=True``.

    Returns the finalised cells and every job's payload as
    ``on_job_complete`` received it.
    """
    payloads: Payloads = []
    cells = evaluator.evaluate_matrix(
        sweeps,
        encode=True,
        on_job_complete=lambda key, scheme, index, session: payloads.append(
            (key, scheme, index, session.payload)
        ),
        **kwargs,
    )
    return finalized(cells), payloads


def finalized(cells: Mapping[str, Mapping[str, StreamingSweepAggregator]]) -> dict:
    """``evaluate_matrix``'s cells as ``{sweep key: {scheme: SchemeAggregates}}``."""
    return {
        key: {scheme: cell.finalize() for scheme, cell in row.items()}
        for key, row in cells.items()
    }


def aggregate_results(results: Iterable[SessionResult]) -> AggregateMetrics:
    """The reference fold: sessions of one scheduler added one by one, then finalised."""
    aggregator = StreamingAggregator()
    for result in results:
        aggregator.add(result)
    return aggregator.finalize()


def encoded(key: str, scheme_results: Mapping[str, Sequence[SessionResult]]) -> Payloads:
    """The payloads a one-sweep run keyed ``key`` should hand on for these sessions."""
    return [
        (key, scheme, index, encode_session(result))
        for scheme, results in scheme_results.items()
        for index, result in enumerate(results)
    ]


def sessions(payloads: Payloads, key: str, scheme: str) -> list[SessionResult]:
    """Decode one cell's sessions from ``payloads``, in trace order."""
    return [
        SessionResult.from_dict(json.loads(payload))
        for cell_key, cell_scheme, _, payload in payloads
        if (cell_key, cell_scheme) == (key, scheme)
    ]
