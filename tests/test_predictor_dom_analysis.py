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


def scan_target(state, event_type):
    """``representative_target`` as first written: the plain targets are found
    by a ``DomNode`` equality scan of the ones with an effect."""
    root = state.dom.root
    if event_type in (EventType.SCROLL, EventType.TOUCHMOVE, EventType.LOAD):
        return root
    candidates = [n for n in state.visible_nodes() if event_type in n.listeners and n is not root]
    if not candidates:
        return None
    with_effect = [n for n in candidates if state.semantic.has_effect(n.node_id, event_type)]
    non_navigating = [n for n in with_effect if not state.semantic.effect_of(n.node_id, event_type).navigates]
    if non_navigating:
        return non_navigating[0]
    plain = [n for n in candidates if n not in with_effect]
    if plain:
        return plain[0]
    return candidates[0]


def served_states(profile, documents=3):
    """Every scroll position of the first served documents, and each of them
    with one of its menus toggled."""
    from repro.traces.session_state import _serve_document

    for doc_index in range(documents):
        dom, semantic = _serve_document(profile, doc_index)
        state = SessionState(profile=profile, dom=dom, semantic=semantic, doc_index=doc_index)
        root_id = state.dom.root.node_id
        toggles = [
            node_id
            for (node_id, event_type), effect in state.semantic.effects.items()
            if event_type is EventType.CLICK and effect.kind.value == "toggle_display"
        ]
        while True:
            yield state
            for node_id in toggles:
                toggled = state.clone()
                toggled.apply_event(EventType.CLICK, node_id)
                yield toggled
            scroll_y = state.dom.viewport.scroll_y
            state.apply_event(EventType.SCROLL, root_id)
            if state.dom.viewport.scroll_y == scroll_y:
                break


class TestRepresentativeTargetMatchesTheScan:
    def test_every_served_state_of_every_app(self, analyzer, catalog):
        picks = 0
        for profile in catalog.profiles.values():
            for state in served_states(profile):
                for event_type in EventType:
                    expected = scan_target(state, event_type)
                    assert analyzer.representative_target(state, event_type) is expected
                    picks += expected is not None
        assert picks > 1000
