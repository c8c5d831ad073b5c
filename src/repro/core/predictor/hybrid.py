"""Hybrid event predictor: the online component PES embeds per session.

The hybrid predictor owns

* a live :class:`~repro.traces.session_state.SessionState` for the
  application being interacted with (updated by :meth:`observe` as actual
  events arrive),
* the trained :class:`~repro.core.predictor.sequence_learner.EventSequenceLearner`
  (shared across applications — the model is trained once on traces from
  all training applications), and
* a :class:`~repro.core.predictor.dom_analysis.DomAnalyzer` that makes the
  shared learner application-specific at runtime by restricting its
  prediction space to the current page's Likely-Next-Event-Set.

``use_dom_analysis=False`` reproduces the ablation of Sec. 6.5.  The
predictor counts nothing: the rounds and predictions of a session are
counted by the :class:`~repro.core.control.control_unit.ControlUnit` that
begins each round.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.predictor.dom_analysis import DomAnalyzer
from repro.core.predictor.sequence_learner import EventSequenceLearner, PredictedEvent
from repro.traces.session_state import SessionState
from repro.webapp.apps import AppProfile
from repro.webapp.events import EventType


@dataclass
class HybridEventPredictor:
    """Per-session wrapper combining statistical inference and DOM analysis."""

    learner: EventSequenceLearner
    profile: AppProfile
    use_dom_analysis: bool = True
    state: SessionState = field(init=False)
    analyzer: DomAnalyzer = field(init=False)

    def __post_init__(self) -> None:
        self.state = SessionState.fresh(self.profile)
        self.analyzer = DomAnalyzer(encoder=self.learner.encoder)

    # -- observation of ground truth ------------------------------------------

    def observe(self, event_type: EventType, node_id: str, navigates: bool | None = None) -> None:
        """Record an actual user event, keeping the DOM view in sync."""
        self.state.apply_event(event_type, node_id, navigates=navigates)

    # -- prediction --------------------------------------------------------------

    def predict_sequence(self) -> list[PredictedEvent]:
        """Predict the upcoming event sequence from the current state."""
        return self.learner.predict_sequence(
            self.state,
            self.analyzer,
            use_dom_analysis=self.use_dom_analysis,
        )

    # -- lifecycle ----------------------------------------------------------------

    def reset(self) -> None:
        """Start a fresh session (new document, empty history)."""
        self.state = SessionState.fresh(self.profile)
