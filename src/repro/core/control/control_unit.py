"""Control unit: owns the speculative round and recovers from mis-predictions.

PES has one speculative round at a time: the predictor's event sequence
paired, head first, with the optimizer's planned assignment for each event.
The control unit holds that round in :attr:`ControlUnit.pending` and
compares each actual user input event with its head.  A match pops the head
and commits its frame from the Pending Frame Buffer if it is buffered; a
mismatch squashes every remaining speculative frame and drops the round, so
the predictor restarts.  After more than ``disable_after`` consecutive
mis-predictions the control unit disables prediction altogether and PES
falls back to the best reactive scheduler (EBS), which keeps PES robust
against unexpected behaviour (Sec. 5.4).

The control unit also keeps the session's speculation ledger: rounds begun,
predictions made, commits and mis-predictions.  The proactive engine copies
it into the session's result.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.control.pfb import PendingFrameBuffer
from repro.core.optimizer.schedule import Assignment
from repro.core.predictor.sequence_learner import PredictedEvent
from repro.webapp.events import EventType


class MatchResult(enum.Enum):
    """Outcome of validating an actual event against the predicted sequence."""

    MATCH = "match"
    MISPREDICT = "mispredict"
    NO_PREDICTION = "no_prediction"


@dataclass
class ControlUnit:
    """Holds the speculative round, the PFB, and mis-prediction state."""

    disable_after: int = 3
    pfb: PendingFrameBuffer = field(default_factory=PendingFrameBuffer)
    #: The round's (prediction, planned assignment) pairs, head first.
    pending: list[tuple[PredictedEvent, Assignment]] = field(default_factory=list)
    consecutive_mispredictions: int = 0
    prediction_enabled: bool = True
    commits: int = 0
    mispredictions: int = 0
    #: Rounds begun with at least one prediction, and their predictions in all.
    rounds: int = 0
    predictions_made: int = 0

    def __post_init__(self) -> None:
        if self.disable_after <= 0:
            raise ValueError("disable_after must be positive")

    # -- prediction rounds --------------------------------------------------------

    def begin_round(
        self, predictions: Sequence[PredictedEvent], assignments: Sequence[Assignment]
    ) -> None:
        """Install a new round (after the previous one drained)."""
        if self.pending:
            raise RuntimeError("cannot begin a round while predictions are still pending")
        self.pending = list(zip(predictions, assignments, strict=True))
        if predictions:
            self.rounds += 1
            self.predictions_made += len(predictions)

    # -- validation ----------------------------------------------------------------

    def validate(self, actual_type: EventType) -> MatchResult:
        """Compare an actual event against the head of the predicted sequence."""
        if not self.prediction_enabled or not self.pending:
            return MatchResult.NO_PREDICTION
        if self.pending[0][0].event_type == actual_type:
            return MatchResult.MATCH
        return MatchResult.MISPREDICT

    def confirm_match(self, now_ms: float) -> Assignment:
        """Pop the matched head, commit its frame if buffered; return its plan."""
        if not self.pending:
            raise RuntimeError("no pending prediction to confirm")
        _, assignment = self.pending.pop(0)
        self.commits += 1
        self.consecutive_mispredictions = 0
        if self.pfb.size:
            self.pfb.commit_head(now_ms)
        return assignment

    def handle_mispredict(self, now_ms: float) -> None:
        """Drop the round, squash the PFB and update the mis-prediction counters."""
        self.pending.clear()
        self.mispredictions += 1
        self.consecutive_mispredictions += 1
        self.pfb.squash_all(now_ms)
        if self.consecutive_mispredictions > self.disable_after:
            self.prediction_enabled = False

    # -- lifecycle -------------------------------------------------------------------

    def reset(self) -> None:
        self.pending.clear()
        self.pfb = PendingFrameBuffer()
        self.consecutive_mispredictions = 0
        self.prediction_enabled = True
        self.commits = 0
        self.mispredictions = 0
        self.rounds = 0
        self.predictions_made = 0
