"""Offline predictor training and accuracy evaluation.

The paper trains the event sequence model offline on recorded interaction
traces from all 12 training applications (so the statistical model is
generic), then relies on the runtime DOM analysis to specialise it per
application.  Training here replays each training trace through a
:class:`~repro.traces.session_state.SessionState`, collects
(feature vector, next event) pairs, fits the multinomial softmax model and
calibrates its confidence.  :func:`evaluate_accuracy` reproduces the Fig. 8
metric: the percentage of events whose type is predicted correctly,
teacher-forced over held-out traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.predictor.dom_analysis import DomAnalyzer
from repro.core.predictor.features import EventLabelEncoder, FeatureExtractor
from repro.core.predictor.logistic import SoftmaxRegression
from repro.core.predictor.sequence_learner import EventSequenceLearner
from repro.traces.session_state import SessionState
from repro.traces.trace import Trace, TraceSet
from repro.webapp.apps import AppCatalog


@dataclass
class TrainingResult:
    """A trained learner plus the dataset statistics behind it."""

    learner: EventSequenceLearner
    n_samples: int
    n_traces: int
    class_counts: dict[str, int]


@dataclass
class PredictorTrainer:
    """Builds the training dataset from traces and fits the softmax model."""

    catalog: AppCatalog = field(default_factory=AppCatalog)
    encoder: EventLabelEncoder = field(default_factory=EventLabelEncoder)
    extractor: FeatureExtractor = field(default_factory=FeatureExtractor)
    learning_rate: float = 0.5
    max_iterations: int = 2000
    l2: float = 1e-4

    def build_dataset(self, traces: TraceSet) -> tuple[np.ndarray, np.ndarray]:
        """Replay traces into (features, labels) arrays.

        For each event after the first, the sample's features describe the
        session state *before* the event and the label is the event's type.
        """
        feature_rows: list[tuple[float, ...]] = []
        labels: list[int] = []
        for trace in traces:
            profile = self.catalog.get(trace.app_name)
            state = SessionState.fresh(profile)
            for position, event in enumerate(trace):
                if position > 0:
                    feature_rows.append(self.extractor.values(state))
                    labels.append(self.encoder.encode(event.event_type))
                state.apply_event(event.event_type, event.node_id, navigates=event.navigates)
        if not feature_rows:
            raise ValueError("the trace set produced no training samples")
        return np.array(feature_rows, dtype=float), np.array(labels, dtype=int)

    def train(self, traces: TraceSet) -> TrainingResult:
        """Fit the softmax event-sequence model on the given traces.

        After fitting, the softmax temperature is calibrated so that
        prediction confidence tracks accuracy (it drives the prediction
        degree).
        """
        features, labels = self.build_dataset(traces)
        model = SoftmaxRegression(
            n_classes=self.encoder.n_classes,
            learning_rate=self.learning_rate,
            max_iterations=self.max_iterations,
            l2=self.l2,
        )
        model.fit(features, labels)
        model.calibrate_temperature(features, labels)
        learner = EventSequenceLearner(model=model, encoder=self.encoder, extractor=self.extractor)
        class_counts = {
            self.encoder.decode(i).value: int((labels == i).sum())
            for i in range(self.encoder.n_classes)
        }
        return TrainingResult(
            learner=learner,
            n_samples=int(features.shape[0]),
            n_traces=len(traces),
            class_counts=class_counts,
        )


def evaluate_accuracy(
    learner: EventSequenceLearner,
    traces: TraceSet | list[Trace],
    catalog: AppCatalog | None = None,
    *,
    use_dom_analysis: bool = True,
) -> dict[str, float]:
    """Per-application next-event prediction accuracy (the Fig. 8 metric).

    The evaluation is teacher-forced: after each actual event the session
    state is updated with the ground truth, and the prediction for the next
    event is compared against what the user actually did.  Because teacher
    forcing fixes every session state up front, the whole trace is scored
    with one batched ``predict_next_batch`` call (one matrix multiply)
    instead of one model query per event.
    """
    catalog = catalog or AppCatalog()
    analyzer = DomAnalyzer(encoder=learner.encoder)
    correct: dict[str, int] = {}
    total: dict[str, int] = {}

    trace_list = list(traces)
    for trace in trace_list:
        profile = catalog.get(trace.app_name)
        state = SessionState.fresh(profile)
        feature_rows: list[tuple[float, ...]] = []
        mask_rows: list[np.ndarray] = []
        actual: list = []
        for position, event in enumerate(trace):
            if position > 0:
                feature_rows.append(learner.extractor.values(state))
                if use_dom_analysis:
                    mask_rows.append(analyzer.lnes_mask(state))
                actual.append(event.event_type)
            state.apply_event(event.event_type, event.node_id, navigates=event.navigates)
        if not feature_rows:
            continue
        masks = np.vstack(mask_rows) if use_dom_analysis else None
        predictions = learner.predict_next_batch(np.array(feature_rows, dtype=float), masks)
        total[trace.app_name] = total.get(trace.app_name, 0) + len(actual)
        hits = sum(1 for (predicted, _), truth in zip(predictions, actual) if predicted == truth)
        correct[trace.app_name] = correct.get(trace.app_name, 0) + hits

    return {
        app: correct.get(app, 0) / count
        for app, count in total.items()
        if count > 0
    }
