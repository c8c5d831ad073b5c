"""Feature extraction and label encoding for the event sequence learner.

The model features are the five of Table 1 — two application-inherent
(clickable-region percentage and visible-link percentage in the viewport)
and three interaction-dependent (distance to the previous click, number of
navigations, number of scrolls, all over the five most recent events).  The
raw features are computed by :class:`~repro.traces.session_state.SessionState`,
which both the trace generator and the predictor share; this module wraps
them with the bias term and the label encoding the logistic models need.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.traces.session_state import SessionState
from repro.webapp.events import EventType

__all__ = ["FeatureExtractor", "EventLabelEncoder"]


@dataclass
class FeatureExtractor:
    """Builds model input vectors from a live session state.

    ``include_bias`` appends a constant 1.0 so the logistic models learn an
    intercept without special-casing it.
    """

    include_bias: bool = True

    def extract(self, state: SessionState) -> np.ndarray:
        features = state.features()
        if self.include_bias:
            return np.concatenate([features, [1.0]])
        return features

    def values(self, state: SessionState) -> tuple[float, ...]:
        """:meth:`extract`'s values as plain floats: a row for a dataset
        that is made into one array at the end."""
        values = state.feature_values()
        return values + (1.0,) if self.include_bias else values


@dataclass
class EventLabelEncoder:
    """Maps event types to dense class indices and back."""

    classes: tuple[EventType, ...] = field(
        default_factory=lambda: tuple(sorted(EventType, key=lambda e: e.value))
    )

    def __post_init__(self) -> None:
        if len(set(self.classes)) != len(self.classes):
            raise ValueError("duplicate classes in label encoder")
        self._index = {event_type: i for i, event_type in enumerate(self.classes)}

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def encode(self, event_type: EventType) -> int:
        try:
            return self._index[event_type]
        except KeyError:
            raise KeyError(f"event type {event_type} not known to the encoder") from None

    def decode(self, index: int) -> EventType:
        return self.classes[index]
