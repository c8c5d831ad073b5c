"""Unit tests for the DOM analysis (LNES) component."""

import numpy as np
import pytest

from repro.core.predictor.dom_analysis import DomAnalyzer
from repro.core.predictor.features import EventLabelEncoder
from repro.traces.session_state import SessionState
from repro.webapp.events import EventType


@pytest.fixture
def analyzer():
    return DomAnalyzer(encoder=EventLabelEncoder())


@pytest.fixture
def state(catalog):
    return SessionState.fresh(catalog.get("cnn"))


class TestLnes:
    def test_lnes_contains_visible_pointer_events(self, analyzer, state):
        lnes = analyzer.likely_next_events(state)
        assert EventType.CLICK in lnes
        assert EventType.SCROLL in lnes
        assert EventType.LOAD not in lnes

    def test_lnes_after_navigation_is_load_only(self, analyzer, state):
        state.apply_event(EventType.CLICK, "cnn-nav-0")
        assert analyzer.likely_next_events(state) == {EventType.LOAD}

    def test_mask_matches_lnes(self, analyzer, state):
        mask = analyzer.lnes_mask(state)
        lnes = analyzer.likely_next_events(state)
        for event_type in EventType:
            index = analyzer.encoder.encode(event_type)
            assert mask[index] == (event_type in lnes)

    def test_mask_is_all_true_when_lnes_empty(self, analyzer, catalog, monkeypatch):
        state = SessionState.fresh(catalog.get("cnn"))
        monkeypatch.setattr(state, "available_events", lambda: set())
        assert np.all(analyzer.lnes_mask(state))


class TestRepresentativeTargets:
    def test_scroll_targets_document_root(self, analyzer, state):
        target = analyzer.representative_target(state, EventType.SCROLL)
        assert target is state.dom.root

    def test_click_prefers_non_navigating_effect_target(self, analyzer, state):
        target = analyzer.representative_target(state, EventType.CLICK)
        assert target is not None
        effect = state.semantic.effect_of(target.node_id, EventType.CLICK)
        assert not effect.navigates

    def test_submit_targets_form_button_when_visible(self, analyzer, state):
        # Scroll until the form is in the viewport, then ask for a submit target.
        for _ in range(40):
            if any(EventType.SUBMIT in n.listeners for n in state.dom.visible_nodes()):
                break
            state.apply_event(EventType.SCROLL, state.dom.root.node_id)
        target = analyzer.representative_target(state, EventType.SUBMIT)
        if target is not None:
            assert EventType.SUBMIT in target.listeners
