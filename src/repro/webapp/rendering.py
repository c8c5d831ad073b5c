"""Rendering-pipeline latency model and VSync frame submission.

An event's latency (Fig. 1) is the time from the input being triggered to
the corresponding frame appearing on the display: callback execution, then
the rendering stages (style resolution, layout, paint, composite), then an
idle wait until the next display refresh (VSync at 60 Hz).

The CPU-visible work (callback + rendering stages) is what the DVFS model
scales with frequency; the VSync quantisation adds a frequency-independent
idle tail.  :class:`RenderingPipeline` holds the per-stage shares of that
work and quantises a frame's completion time to the next VSync.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

#: Display refresh period for a 60 Hz mobile panel, in milliseconds.
VSYNC_PERIOD_MS: float = 1000.0 / 60.0

#: Default division of an event's CPU work across pipeline stages.  The
#: callback (JavaScript) dominates, consistent with the paper's observation
#: that the Web runtime's dynamic translation layer is compute heavy.
DEFAULT_STAGE_SHARES: Mapping[str, float] = {
    "callback": 0.55,
    "style": 0.12,
    "layout": 0.15,
    "paint": 0.10,
    "composite": 0.08,
}


@dataclass(frozen=True)
class RenderingPipeline:
    """Pipeline stage shares of event work, and VSync quantisation."""

    stage_shares: Mapping[str, float] = None  # type: ignore[assignment]
    vsync_period_ms: float = VSYNC_PERIOD_MS

    def __post_init__(self) -> None:
        shares = self.stage_shares if self.stage_shares is not None else DEFAULT_STAGE_SHARES
        object.__setattr__(self, "stage_shares", dict(shares))
        total = sum(self.stage_shares.values())
        if not math.isclose(total, 1.0, rel_tol=1e-6):
            raise ValueError(f"stage shares must sum to 1.0, got {total}")
        if any(v < 0 for v in self.stage_shares.values()):
            raise ValueError("stage shares must be non-negative")
        if self.vsync_period_ms <= 0:
            raise ValueError("vsync period must be positive")

    def next_vsync_ms(self, time_ms: float) -> float:
        """The first VSync at or after ``time_ms``."""
        if time_ms < 0:
            raise ValueError("time must be non-negative")
        ticks = math.ceil(time_ms / self.vsync_period_ms - 1e-9)
        return ticks * self.vsync_period_ms
