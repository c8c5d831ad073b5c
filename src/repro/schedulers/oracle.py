"""Oracle scheduler: a priori knowledge of the entire event sequence.

The oracle knows every future event — its type, its arrival time, and its
workload — and can therefore coordinate executions across the whole trace:
it is the proactive scheduler with a perfect predictor of infinite
prediction degree.  The paper uses it as the upper bound: it removes all
QoS violations and maximises energy savings.

In this reproduction the oracle runs on its own engine,
:class:`~repro.runtime.engine.OracleEngine`, which plans windows of known
future events with the exact branch-and-bound window solver.
:class:`OracleScheduler` carries the knobs that configure it; it is not a
:class:`~repro.schedulers.base.ReactiveScheduler`.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class OracleScheduler:
    """Configuration marker for the oracle scheduling mode.

    Parameters
    ----------
    lookahead_events:
        How many future events the oracle plans over at a time (48 by
        default).  ``None`` means the entire remaining trace (the paper's
        infinite prediction degree).  Solving the whole trace as a single
        window grows super-linearly with trace length, while the extra
        lookahead stops paying for itself after a few dozen events (events
        that far apart no longer interfere).
    """

    lookahead_events: int | None = 48
    name: str = field(default="Oracle", init=False)

    def __post_init__(self) -> None:
        if self.lookahead_events is not None and self.lookahead_events <= 0:
            raise ValueError("lookahead_events must be positive or None")
