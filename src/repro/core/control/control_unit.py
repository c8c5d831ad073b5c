"""Control unit: validates predictions and recovers from mis-predictions.

The control unit monitors actual user input events and compares them with
the head of the predicted sequence.  A match commits the corresponding
speculative frame from the Pending Frame Buffer to the application; a
mismatch squashes every remaining speculative frame and asks the predictor
to restart (the engine drops the rest of the round's schedule).  After more
than ``disable_after`` consecutive mis-predictions the control unit disables
prediction altogether and PES falls back to the best reactive scheduler
(EBS), which keeps PES robust against unexpected behaviour (Sec. 5.4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.control.pfb import PendingFrameBuffer, SpeculativeFrame
from repro.core.predictor.sequence_learner import PredictedEvent
from repro.webapp.events import EventType


class MatchResult(enum.Enum):
    """Outcome of validating an actual event against the predicted sequence."""

    MATCH = "match"
    MISPREDICT = "mispredict"
    NO_PREDICTION = "no_prediction"


@dataclass
class ControlUnit:
    """Tracks the predicted-event queue, the PFB, and mis-prediction state."""

    disable_after: int = 3
    pfb: PendingFrameBuffer = field(default_factory=PendingFrameBuffer)
    pending: list[PredictedEvent] = field(default_factory=list)
    consecutive_mispredictions: int = 0
    prediction_enabled: bool = True
    commits: int = 0
    mispredictions: int = 0
    rounds: int = 0

    def __post_init__(self) -> None:
        if self.disable_after <= 0:
            raise ValueError("disable_after must be positive")

    # -- prediction rounds --------------------------------------------------------

    def begin_round(self, predictions: list[PredictedEvent]) -> None:
        """Install a new predicted sequence (after the previous one drained)."""
        if self.pending:
            raise RuntimeError("cannot begin a round while predictions are still pending")
        self.pending = list(predictions)
        if predictions:
            self.rounds += 1

    @property
    def has_pending(self) -> bool:
        return bool(self.pending)

    # -- validation ----------------------------------------------------------------

    def validate(self, actual_type: EventType) -> MatchResult:
        """Compare an actual event against the head of the predicted sequence."""
        if not self.prediction_enabled or not self.pending:
            return MatchResult.NO_PREDICTION
        if self.pending[0].event_type == actual_type:
            return MatchResult.MATCH
        return MatchResult.MISPREDICT

    def confirm_match(self, now_ms: float) -> SpeculativeFrame | None:
        """Consume the matched prediction; commit its frame if one is buffered."""
        if not self.pending:
            raise RuntimeError("no pending prediction to confirm")
        self.pending.pop(0)
        self.commits += 1
        self.consecutive_mispredictions = 0
        if not self.pfb.is_empty:
            return self.pfb.commit_head(now_ms)
        return None

    def handle_mispredict(self, now_ms: float) -> list[SpeculativeFrame]:
        """Squash all speculative state and update the mis-prediction counters."""
        self.pending.clear()
        self.mispredictions += 1
        self.consecutive_mispredictions += 1
        squashed = self.pfb.squash_all(now_ms)
        if self.consecutive_mispredictions > self.disable_after:
            self.prediction_enabled = False
        return squashed

    # -- lifecycle -------------------------------------------------------------------

    def reset(self) -> None:
        self.pending.clear()
        self.pfb = PendingFrameBuffer()
        self.consecutive_mispredictions = 0
        self.prediction_enabled = True
        self.commits = 0
        self.mispredictions = 0
        self.rounds = 0
