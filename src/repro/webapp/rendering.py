"""Rendering-pipeline latency model and VSync frame submission.

An event's latency (Fig. 1) is the time from the input being triggered to
the corresponding frame appearing on the display: callback execution, then
the rendering stages (style resolution, layout, paint, composite), then an
idle wait until the next display refresh (VSync at 60 Hz).

The CPU-visible work (callback + rendering stages) is what the DVFS model
scales with frequency; the VSync quantisation adds a frequency-independent
idle tail.  :class:`RenderingPipeline` quantises a frame's completion time
to the next VSync.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Display refresh period for a 60 Hz mobile panel, in milliseconds.
VSYNC_PERIOD_MS: float = 1000.0 / 60.0


@dataclass(frozen=True)
class RenderingPipeline:
    """VSync quantisation of frame completion times."""

    vsync_period_ms: float = VSYNC_PERIOD_MS

    def __post_init__(self) -> None:
        if self.vsync_period_ms <= 0:
            raise ValueError("vsync period must be positive")

    def next_vsync_ms(self, time_ms: float) -> float:
        """The first VSync at or after ``time_ms``."""
        if time_ms < 0:
            raise ValueError("time must be non-negative")
        ticks = math.ceil(time_ms / self.vsync_period_ms - 1e-9)
        return ticks * self.vsync_period_ms
