"""Pending Frame Buffer (PFB).

Speculative frames produced by the rendering engine for predicted events
are parked in the PFB until the control unit either commits them (the
actual user event matched the prediction) or squashes them all (a
mis-prediction).  The PFB size over time is the quantity plotted in Fig. 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.acmp import AcmpConfig
from repro.webapp.events import EventType


@dataclass(frozen=True)
class SpeculativeFrame:
    """One speculative frame and the cost of producing it.

    ``started_ms`` / ``ready_ms`` bound the window in which the frame's CPU
    work executed; ``cpu_time_ms`` and ``energy_mj`` are the work spent on
    it (wasted if the frame is later squashed).
    """

    sequence: int
    event_type: EventType
    node_id: str
    config: AcmpConfig
    started_ms: float
    ready_ms: float
    cpu_time_ms: float
    energy_mj: float

    def __post_init__(self) -> None:
        if self.ready_ms < self.started_ms:
            raise ValueError("a frame cannot be ready before it started")
        if self.cpu_time_ms < 0 or self.energy_mj < 0:
            raise ValueError("frame costs must be non-negative")


@dataclass
class PendingFrameBuffer:
    """FIFO of speculative frames awaiting commit or squash."""

    frames: list[SpeculativeFrame] = field(default_factory=list)
    #: (time, size) samples recorded at every mutation, for Fig. 9.
    size_history: list[tuple[float, int]] = field(default_factory=list)
    committed: int = 0
    squashed: int = 0

    def push(self, frame: SpeculativeFrame, now_ms: float) -> None:
        if self.frames and frame.sequence <= self.frames[-1].sequence:
            raise ValueError("frames must be pushed in increasing sequence order")
        self.frames.append(frame)
        self._record(now_ms)

    def commit_head(self, now_ms: float) -> SpeculativeFrame:
        """Commit (pop) the oldest speculative frame for display."""
        if not self.frames:
            raise LookupError("cannot commit from an empty pending frame buffer")
        frame = self.frames.pop(0)
        self.committed += 1
        self._record(now_ms)
        return frame

    def squash_all(self, now_ms: float) -> list[SpeculativeFrame]:
        """Drop every pending frame (mis-prediction recovery)."""
        dropped = list(self.frames)
        self.frames.clear()
        self.squashed += len(dropped)
        self._record(now_ms)
        return dropped

    def _record(self, now_ms: float) -> None:
        self.size_history.append((now_ms, len(self.frames)))

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def is_empty(self) -> bool:
        return not self.frames
