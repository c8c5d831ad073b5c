"""Frame timing: VSync frame submission and the planning margin.

An event's latency (Fig. 1) is the time from the input being triggered to
the corresponding frame appearing on the display: callback execution, then
the rendering stages (style resolution, layout, paint, composite), then an
idle wait until the next display refresh (VSync at 60 Hz).

The CPU-visible work (callback + rendering stages) is what the DVFS model
scales with frequency; the VSync quantisation adds a frequency-independent
idle tail.  :func:`next_vsync_ms` quantises a frame's completion time to the
next VSync.  PES, EBS and the Oracle all plan against the QoS deadline less
:data:`PLANNING_MARGIN_MS` (:func:`planning_deadline_ms`), a reserve for the
rendering hand-off and that tail.
"""

from __future__ import annotations

import math

#: Display refresh period for a 60 Hz mobile panel, in milliseconds.
VSYNC_PERIOD_MS: float = 1000.0 / 60.0

#: Reserve kept before every QoS deadline when planning a frame.
PLANNING_MARGIN_MS: float = 8.0


def next_vsync_ms(time_ms: float) -> float:
    """The first VSync at or after ``time_ms``."""
    if time_ms < 0:
        raise ValueError("time must be non-negative")
    ticks = math.ceil(time_ms / VSYNC_PERIOD_MS - 1e-9)
    return ticks * VSYNC_PERIOD_MS


def planning_deadline_ms(deadline_ms: float, release_ms: float) -> float:
    """The QoS deadline less the planning margin, never before ``release_ms``."""
    return max(deadline_ms - PLANNING_MARGIN_MS, release_ms)
