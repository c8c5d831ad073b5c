"""Pending Frame Buffer (PFB).

Speculative frames produced by the rendering engine for predicted events
are parked in the PFB until the control unit either commits them (the
actual user event matched the prediction) or squashes them all (a
mis-prediction).  The buffered frames are always the head of the control
unit's round, in order, so the buffer only counts them.  The PFB size over
time is the quantity plotted in Fig. 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class PendingFrameBuffer:
    """Count of the round's ready speculative frames awaiting commit or squash."""

    size: int = 0
    #: (time, size) samples recorded at every mutation, for Fig. 9.
    size_history: list[tuple[float, int]] = field(default_factory=list)
    committed: int = 0
    squashed: int = 0

    def push(self, now_ms: float) -> None:
        """Park the round's next frame, ready at ``now_ms``."""
        self.size += 1
        self._record(now_ms)

    def commit_head(self, now_ms: float) -> None:
        """Commit (pop) the oldest speculative frame for display."""
        if not self.size:
            raise LookupError("cannot commit from an empty pending frame buffer")
        self.size -= 1
        self.committed += 1
        self._record(now_ms)

    def squash_all(self, now_ms: float) -> None:
        """Drop every pending frame (mis-prediction recovery)."""
        self.squashed += self.size
        self.size = 0
        self._record(now_ms)

    def _record(self, now_ms: float) -> None:
        self.size_history.append((now_ms, self.size))
