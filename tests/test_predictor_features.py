"""Unit tests for feature extraction and label encoding."""

import numpy as np
import pytest

from repro.core.predictor.features import EventLabelEncoder, FeatureExtractor
from repro.traces.session_state import FEATURE_NAMES, SessionState
from repro.webapp.events import EventType


class TestFeatureExtractor:

    def test_table1_feature_names(self):
        names = list(FEATURE_NAMES)
        assert "clickable_region_fraction" in names
        assert "visible_link_fraction" in names
        assert "distance_to_previous_click" in names
        assert "navigations_in_window" in names
        assert "scrolls_in_window" in names

    def test_extract_appends_bias(self, catalog):
        state = SessionState.fresh(catalog.get("cnn"))
        vector = FeatureExtractor().extract(state)
        assert vector.shape == (6,)
        assert vector[-1] == pytest.approx(1.0)

    def test_extract_matches_session_state_features(self, catalog):
        state = SessionState.fresh(catalog.get("cnn"))
        vector = FeatureExtractor(include_bias=False).extract(state)
        assert np.allclose(vector, state.features())

    @pytest.mark.parametrize("include_bias", [True, False])
    def test_dataset_rows_have_the_bytes_of_extract(self, catalog, generator, include_bias):
        """``build_dataset`` stacks ``values`` rows; the predictor's step memo
        keys on ``extract``'s bytes.  Both must describe the same input."""
        extractor = FeatureExtractor(include_bias=include_bias)
        trace = generator.generate("cnn", seed=5)
        state = SessionState.fresh(catalog.get("cnn"))
        rows, vectors = [], []
        for event in trace:
            rows.append(extractor.values(state))
            vectors.append(extractor.extract(state))
            state.apply_event(event.event_type, event.node_id, navigates=event.navigates)
        assert all(type(value) is float for row in rows for value in row)
        assert np.array(rows, dtype=float).tobytes() == np.vstack(vectors).tobytes()


class TestLabelEncoder:
    def test_bijection_over_event_types(self):
        encoder = EventLabelEncoder()
        assert encoder.n_classes == len(EventType)
        for event_type in EventType:
            assert encoder.decode(encoder.encode(event_type)) is event_type

    def test_rejects_duplicate_classes(self):
        with pytest.raises(ValueError):
            EventLabelEncoder(classes=(EventType.CLICK, EventType.CLICK))

    def test_deterministic_class_order(self):
        assert EventLabelEncoder().classes == EventLabelEncoder().classes
