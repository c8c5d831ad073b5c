"""Hybrid event prediction: statistical inference + program (DOM) analysis."""

from repro.core.predictor.features import FeatureExtractor, EventLabelEncoder, FEATURE_NAMES
from repro.core.predictor.logistic import SoftmaxRegression
from repro.core.predictor.dom_analysis import DomAnalyzer
from repro.core.predictor.sequence_learner import EventSequenceLearner, PredictedEvent
from repro.core.predictor.hybrid import HybridEventPredictor
from repro.core.predictor.training import PredictorTrainer, TrainingResult, evaluate_accuracy

__all__ = [
    "FeatureExtractor",
    "EventLabelEncoder",
    "FEATURE_NAMES",
    "SoftmaxRegression",
    "DomAnalyzer",
    "EventSequenceLearner",
    "PredictedEvent",
    "HybridEventPredictor",
    "PredictorTrainer",
    "TrainingResult",
    "evaluate_accuracy",
]
