"""Event sequence learner: recurrent next-event prediction with confidence.

The learner estimates ``p(y1..yT' | x1..xT)`` one step at a time: every
step builds a feature vector from the session state, asks the softmax
model for the probability of each candidate next event, predicts
the most likely one, and feeds the prediction back (by rolling the session
state forward) to predict the following event.  Prediction stops when the
*cumulative* confidence — the product of the per-step confidences — drops
below the confidence threshold (70% by default); the number of events
predicted before stopping is the prediction degree.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from repro.core.predictor.dom_analysis import DomAnalyzer
from repro.core.predictor.features import EventLabelEncoder, FeatureExtractor
from repro.core.predictor.logistic import SoftmaxRegression
from repro.traces.session_state import SessionState
from repro.utils import ValidatedRecord
from repro.webapp.events import EventType

#: Default cumulative-confidence threshold (Sec. 5.2, empirically 70%).
DEFAULT_CONFIDENCE_THRESHOLD: float = 0.70

#: Hard cap on how many events a single prediction round may produce; the
#: threshold normally stops prediction earlier (degree ≈ 5 in the paper).
DEFAULT_MAX_DEGREE: int = 12


class PredictedEvent(
    ValidatedRecord,
    namedtuple("PredictedEvent", "event_type confidence cumulative_confidence node_id"),
):
    """One predicted future event with its per-step and cumulative confidence."""

    __slots__ = ()

    def __new__(
        cls, event_type: EventType, confidence: float, cumulative_confidence: float, node_id: str
    ) -> PredictedEvent:
        if not 0.0 <= confidence <= 1.0:
            raise ValueError("confidence must be in [0, 1]")
        if not 0.0 <= cumulative_confidence <= 1.0 + 1e-9:
            raise ValueError("cumulative confidence must be in [0, 1]")
        return tuple.__new__(cls, (event_type, confidence, cumulative_confidence, node_id))


@dataclass
class EventSequenceLearner:
    """Trained softmax model plus the recurrent prediction loop."""

    model: SoftmaxRegression
    encoder: EventLabelEncoder = field(default_factory=EventLabelEncoder)
    extractor: FeatureExtractor = field(default_factory=FeatureExtractor)
    confidence_threshold: float = DEFAULT_CONFIDENCE_THRESHOLD
    max_degree: int = DEFAULT_MAX_DEGREE

    def __post_init__(self) -> None:
        if not 0.0 < self.confidence_threshold <= 1.0:
            raise ValueError("confidence_threshold must be in (0, 1]")
        if self.max_degree <= 0:
            raise ValueError("max_degree must be positive")

    # -- single-step prediction ------------------------------------------------

    def predict_next(
        self, state: SessionState, *, mask: np.ndarray | None = None
    ) -> tuple[EventType, float]:
        """Predict the immediate next event type and its confidence."""
        index, confidence = self.model.predict_row(self.extractor.values(state), mask)
        return self.encoder.decode(index), confidence

    def predict_next_batch(
        self, features: np.ndarray, masks: np.ndarray | None = None
    ) -> list[tuple[EventType, float]]:
        """Batched :meth:`predict_next` over pre-extracted feature rows.

        ``features`` is a ``(n_samples, n_features)`` matrix and ``masks`` an
        optional per-row boolean class-mask matrix.  The whole batch is
        scored with a single ``features @ W.T`` pass through the underlying
        model, which is how the accuracy evaluation scores an entire
        validation trace at once.
        """
        probabilities = self.model.predict_proba(features, masks)
        indices = probabilities.argmax(axis=1)
        return [
            (self.encoder.decode(int(index)), float(probabilities[row, index]))
            for row, index in enumerate(indices)
        ]

    # -- recurrent multi-step prediction -----------------------------------------

    def predict_sequence(
        self,
        state: SessionState,
        analyzer: DomAnalyzer | None = None,
        *,
        use_dom_analysis: bool = True,
    ) -> list[PredictedEvent]:
        """Predict the upcoming event sequence from the current session state.

        ``analyzer`` provides the DOM analysis; when omitted or when
        ``use_dom_analysis`` is False the learner predicts over the full
        event-type space (the ablation of Sec. 6.5).

        A round is a pure function of the DOM state, the feature window,
        ``last_navigated`` and the learner, so it is memoised on the state's
        view like every other pure function of the DOM state, keyed by the
        window's ``(event_type, navigated)`` pairs (the ``ObservedEvent``
        tuples themselves), ``last_navigated`` and :meth:`_round_inputs`.
        An unfitted learner skips the memo and raises from the loop.

        A computed round looks each step up in the model's one step memo by
        the feature values and the LNES mask
        (:meth:`SoftmaxRegression.predict_row`): a step seen before, in any
        round, builds no array and runs no numpy.
        """
        dom = analyzer if (analyzer is not None and use_dom_analysis) else None
        if self.model.weights is None:
            return self._roll_forward(state, dom)
        key = (
            "predict_sequence",
            self._round_inputs(dom),
            tuple(state.history),
            state.last_navigated,
        )
        memo = state.view().memo
        predictions = memo.get(key)
        if predictions is None:
            predictions = memo[key] = tuple(self._roll_forward(state, dom))
        return list(predictions)

    def _round_inputs(self, dom: DomAnalyzer | None) -> tuple:
        """Every learner field a prediction round reads, by value.

        The weights enter through :meth:`SoftmaxRegression.model_key`, which
        reads their bytes once per read-only weights array and temperature.
        """
        return (
            self.model.model_key(),
            self.model.n_classes,
            self.confidence_threshold,
            self.max_degree,
            self.encoder.classes,
            self.extractor.include_bias,
            None if dom is None else dom.encoder.classes,
        )

    def _roll_forward(self, state: SessionState, dom: DomAnalyzer | None) -> list[PredictedEvent]:
        """The prediction loop: predict, roll a clone forward, repeat.

        Each step looks the current state up in the model's step memo by
        its feature values and the LNES mask's bytes
        (:meth:`SoftmaxRegression.predict_row`), so a step seen before
        builds no array.  The first step reads ``state`` itself; the loop
        clones it just before its first ``apply_event``, so a round that
        stops at its first step clones nothing.
        """
        predictions: list[PredictedEvent] = []
        cumulative = 1.0
        current = state
        model, values, decode = self.model, self.extractor.values, self.encoder.decode

        for _ in range(self.max_degree):
            mask = dom.lnes_mask(current) if dom is not None else None
            index, confidence = model.predict_row(values(current), mask)
            event_type = decode(index)
            cumulative *= confidence
            if cumulative < self.confidence_threshold:
                break

            if dom is not None:
                target = dom.representative_target(current, event_type)
            else:
                target = None
            node_id = target.node_id if target is not None else current.dom.root.node_id
            predictions.append(
                PredictedEvent(
                    event_type=event_type,
                    confidence=confidence,
                    cumulative_confidence=cumulative,
                    node_id=node_id,
                )
            )
            if current is state:
                current = state.clone()
            current.apply_event(event_type, node_id)

        return predictions
