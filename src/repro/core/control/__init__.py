"""PES control unit: pending frame buffer and commit/squash."""

from repro.core.control.pfb import PendingFrameBuffer, SpeculativeFrame
from repro.core.control.control_unit import ControlUnit, MatchResult

__all__ = [
    "PendingFrameBuffer",
    "SpeculativeFrame",
    "ControlUnit",
    "MatchResult",
]
