"""Unit tests for the session state and Table-1 features."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.predictor.training import PredictorTrainer
from repro.traces import session_state
from repro.traces.generator import TraceGenerator
from repro.traces.session_state import FEATURE_NAMES, FEATURE_WINDOW, SessionState, document_rng
from repro.webapp.apps import SEEN_APPS, UNSEEN_APPS, AppCatalog, AppProfile
from repro.webapp.dom import DomNode, DomTree
from repro.webapp.events import EventType, Interaction, interaction_of
from repro.webapp.semantic_tree import CallbackEffect, EffectKind


@pytest.fixture(scope="module")
def catalog():
    return AppCatalog()


@pytest.fixture
def state(catalog):
    return SessionState.fresh(catalog.get("cnn"))


class TestFeatures:
    def test_five_features_in_unit_range(self, state):
        features = state.features()
        assert features.shape == (len(FEATURE_NAMES),)
        assert np.all(features >= 0.0) and np.all(features <= 1.0)

    def test_distance_to_click_saturates_without_clicks(self, state):
        assert state.features()[2] == pytest.approx(1.0)

    def test_distance_to_click_after_click(self, state):
        state.apply_event(EventType.CLICK, f"{state.profile.name}-menu-btn-0")
        assert state.features()[2] == pytest.approx(1.0 / FEATURE_WINDOW)
        state.apply_event(EventType.SCROLL, state.dom.root.node_id)
        assert state.features()[2] == pytest.approx(2.0 / FEATURE_WINDOW)

    def test_scroll_count_feature(self, state):
        for _ in range(3):
            state.apply_event(EventType.SCROLL, state.dom.root.node_id)
        assert state.features()[4] == pytest.approx(3.0 / FEATURE_WINDOW)

    def test_window_is_bounded(self, state):
        for _ in range(10):
            state.apply_event(EventType.SCROLL, state.dom.root.node_id)
        assert state.features()[4] == pytest.approx(1.0)

    def test_navigation_count_feature(self, state):
        nav_node = f"{state.profile.name}-nav-0"
        state.apply_event(EventType.CLICK, nav_node)
        assert state.features()[3] == pytest.approx(1.0 / FEATURE_WINDOW)


class TestAvailableEvents:
    def test_fresh_state_offers_pointer_events(self, state):
        events = state.available_events()
        assert EventType.SCROLL in events
        assert EventType.CLICK in events
        assert EventType.LOAD not in events

    def test_after_navigation_only_load_is_possible(self, state):
        state.apply_event(EventType.CLICK, f"{state.profile.name}-nav-0")
        assert state.available_events() == {EventType.LOAD}

    def test_load_restores_pointer_events(self, state):
        state.apply_event(EventType.CLICK, f"{state.profile.name}-nav-0")
        state.apply_event(EventType.LOAD, f"{state.profile.name}-body")
        assert EventType.CLICK in state.available_events()


class TestStateEvolution:
    def test_scroll_moves_viewport(self, state):
        before = state.dom.viewport.scroll_y
        state.apply_event(EventType.SCROLL, state.dom.root.node_id)
        assert state.dom.viewport.scroll_y > before

    def test_menu_toggle_changes_visible_clickable_area(self, state):
        button = f"{state.profile.name}-menu-btn-0"
        before = state.dom.clickable_region_fraction()
        state.apply_event(EventType.CLICK, button)
        assert state.dom.clickable_region_fraction() != pytest.approx(before)

    def test_navigates_override_used_for_replay(self, state):
        # A node with no memoised effect can still be replayed as navigating
        # because the recorded trace stores the ground truth.
        state.apply_event(EventType.CLICK, f"{state.profile.name}-sec-0-el-0", navigates=True)
        assert state.available_events() == {EventType.LOAD}

    def test_load_rebuilds_document_deterministically(self, catalog):
        a = SessionState.fresh(catalog.get("cnn"))
        b = SessionState.fresh(catalog.get("cnn"))
        for s in (a, b):
            s.apply_event(EventType.CLICK, f"cnn-nav-0")
            s.apply_event(EventType.LOAD, "cnn-body")
        assert a.dom.clickable_region_fraction() == pytest.approx(b.dom.clickable_region_fraction())
        assert a.doc_index == b.doc_index == 1

    def test_clone_is_independent(self, state):
        clone = state.clone()
        clone.apply_event(EventType.SCROLL, clone.dom.root.node_id)
        assert clone.dom.viewport.scroll_y != state.dom.viewport.scroll_y
        assert len(clone.history) != len(state.history)


def _observe(state: SessionState) -> tuple:
    """Everything a side of a clone pair must keep: node styles, features, LNES."""
    return (
        [(n.node_id, n.display) for n in state.dom.walk()],
        state.dom.flipped,
        state.dom.viewport.scroll_y,
        tuple(state.features()),
        state.available_events(),
        [n.node_id for n in state.dom.visible_nodes()],
    )


def _menu_toggle(state: SessionState) -> None:
    state.apply_event(EventType.CLICK, f"{state.profile.name}-menu-btn-0")


def _scroll(state: SessionState) -> None:
    state.apply_event(EventType.SCROLL, state.dom.root.node_id)


def _show_menu(state: SessionState) -> None:
    # Straight to the tree, past apply_event (and the state's snapshot).
    CallbackEffect(kind=EffectKind.SHOW, target_node_ids=(f"{state.profile.name}-menu-0",)).apply(state.dom)


class TestCloneIndependence:
    @pytest.mark.parametrize("mutate", [_menu_toggle, _scroll, _show_menu])
    @pytest.mark.parametrize("side", ["original", "clone"])
    def test_mutation_on_one_side_leaves_other_unchanged(self, state, mutate, side):
        state.features()  # the clone inherits a filled visibility snapshot
        clone = state.clone()
        mutated, other = (state, clone) if side == "original" else (clone, state)
        before = _observe(other)
        mutate(mutated)
        assert _observe(other) == before
        assert _observe(mutated) != before

    def test_clone_shares_snapshot_until_it_changes(self, state):
        visible = state.visible_nodes()
        clone = state.clone()
        assert clone.visible_nodes() is visible
        _menu_toggle(clone)
        assert clone.visible_nodes() is not visible
        assert state.visible_nodes() is visible


def _count_calls(monkeypatch, owner, name: str) -> list:
    """Wrap the one-argument method ``owner.name``; returns the list of its receivers."""
    calls = []
    original = getattr(owner, name)

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestWorkCounts:
    """Call counts, not timings, so these cannot flake."""

    @pytest.fixture(autouse=True)
    def fresh_documents(self, monkeypatch):
        # Served documents share their view memo process-wide; count from an empty one.
        monkeypatch.setattr(session_state, "_DOCUMENTS", {})

    @pytest.fixture
    def passes(self, monkeypatch):
        return _count_calls(monkeypatch, DomTree, "visible_nodes")

    @pytest.fixture
    def views(self, monkeypatch):
        return _count_calls(monkeypatch, DomTree, "view")

    @pytest.fixture
    def node_inits(self, monkeypatch):
        inits = []
        original = DomNode.__init__

        def counting(self, *args, **kwargs):
            inits.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(DomNode, "__init__", counting)
        return inits

    def test_features_and_lnes_share_one_visibility_pass(self, state, passes):
        state.features()
        state.available_events()
        assert len(passes) == 1

    def test_each_state_change_costs_one_pass(self, state, passes):
        for apply in (_scroll, _menu_toggle):
            apply(state)
            state.features()
            state.available_events()
        assert len(passes) == 2

    def test_sessions_on_one_document_share_its_views(self, state, catalog, passes):
        state.features()
        twin = SessionState.fresh(catalog.get("cnn"))
        twin.features()
        _scroll(twin)
        twin.available_events()
        _scroll(state)
        state.available_events()
        assert len(passes) == 2

    def test_a_toggled_state_is_walked_once_per_process(self, state, catalog, passes):
        _menu_toggle(state)
        state.dom.view()
        state.dom.view()
        twin = SessionState.fresh(catalog.get("cnn"))
        _menu_toggle(twin)
        assert twin.view() is state.view()
        assert len(passes) == 1

    def test_an_effect_free_click_keeps_the_view(self, state, views):
        # Every state is walked once, so a kept view saves the memo lookup.
        _menu_toggle(state)
        before = state.features()
        root = state.dom.root.node_id
        assert not state.semantic.has_effect(root, EventType.CLICK)
        state.apply_event(EventType.CLICK, root)
        assert np.array_equal(state.features()[:2], before[:2])
        state.available_events()
        assert len(views) == 1
        assert state.view() is state.dom.view()

    def test_roll_forward_builds_no_nodes(self, state, node_inits):
        clone = state.clone()
        for apply in (_scroll, _menu_toggle, _scroll, _menu_toggle):
            apply(clone)
            clone.features()
            clone.available_events()
        assert node_inits == []
        assert clone.dom.root is state.dom.root


class TestDocumentRng:
    def test_deterministic_per_profile_and_index(self, catalog):
        profile = catalog.get("cnn")
        a = document_rng(profile, 3).integers(1_000_000)
        b = document_rng(profile, 3).integers(1_000_000)
        c = document_rng(profile, 4).integers(1_000_000)
        assert a == b
        assert a != c


def _document(dom: DomTree, semantic) -> tuple:
    """Every node field in pre-order, the state, the page geometry and the effects."""
    nodes = [
        (n.tag, n.node_id, n.y, n.height, n.width, n.display, n.listeners, n.is_link, len(n.children))
        for n in dom.walk()
    ]
    return nodes, dom.flipped, dom.viewport, dom._page_height, dict(semantic.effects)


def _fresh_build(profile, doc_index: int) -> tuple:
    return _document(*profile.build_dom(document_rng(profile, doc_index)))


class TestDocumentMemo:
    @pytest.mark.parametrize("app", SEEN_APPS + UNSEEN_APPS)
    def test_served_documents_equal_fresh_builds(self, catalog, app):
        profile = catalog.get(app)
        state = SessionState.fresh(profile)
        for doc_index in range(6):
            assert state.doc_index == doc_index
            assert _document(state.dom, state.semantic) == _fresh_build(profile, doc_index)
            state.apply_event(EventType.LOAD, state.dom.root.node_id)

    @pytest.mark.parametrize("mutate", [_menu_toggle, _show_menu])
    def test_mutating_a_served_document_leaves_the_memo_unchanged(self, catalog, mutate):
        profile = catalog.get("cnn")
        expected = _fresh_build(profile, 0)
        state = SessionState.fresh(profile)
        mutate(state)
        with pytest.raises(TypeError):
            state.semantic.register("cnn-nav-0", EventType.SCROLL, CallbackEffect())
        assert _document(state.dom, state.semantic) != expected
        assert _document(*session_state._DOCUMENTS[(profile, 0)]) == expected
        served = SessionState.fresh(profile)
        assert _document(served.dom, served.semantic) == expected

    def test_each_document_is_built_once(self, monkeypatch):
        monkeypatch.setattr(session_state, "_DOCUMENTS", {})
        requested = []
        built = []
        original_rng, original_build = session_state.document_rng, AppProfile.build_dom

        def recording_rng(profile, doc_index):
            requested.append((profile.name, doc_index))
            return original_rng(profile, doc_index)

        def counting_build(self, rng=None):
            built.append(self.name)
            return original_build(self, rng)

        monkeypatch.setattr(session_state, "document_rng", recording_rng)
        monkeypatch.setattr(AppProfile, "build_dom", counting_build)
        traces = TraceGenerator().generate_many(["cnn", "google", "slashdot"], 3, base_seed=0)
        PredictorTrainer(max_iterations=20).train(traces)
        assert len(built) == len(requested) == len(session_state._DOCUMENTS)
        assert set(Counter(requested).values()) == {1}
        # Generator and trainer each open every trace's documents: a first
        # one per session plus one per load.
        served = 2 * sum(1 + sum(e.event_type is EventType.LOAD for e in trace) for trace in traces)
        assert len(built) < served


def rescanned_window_counts(state: SessionState) -> tuple[int, int, int]:
    """The window counts as they were computed before they were kept
    incrementally: a full scan of the history on every call."""
    distance_to_click = FEATURE_WINDOW
    for distance, observed in enumerate(reversed(state.history), start=1):
        if interaction_of(observed.event_type) is Interaction.TAP:
            distance_to_click = distance
            break
    navigations = sum(1 for o in state.history if o.navigated)
    moves = sum(1 for o in state.history if interaction_of(o.event_type) is Interaction.MOVE)
    return distance_to_click, navigations, moves


#: One step of a drawn session: an event type, whether it navigates, and
#: whether to continue on a clone of the state from here on.
window_steps = st.lists(
    st.tuples(st.sampled_from(list(EventType)), st.booleans(), st.booleans()),
    max_size=3 * FEATURE_WINDOW + 4,
)


class TestIncrementalWindowCounts:
    @given(steps=window_steps, app=st.sampled_from(["cnn", "amazon"]))
    @settings(max_examples=150, deadline=None)
    def test_counts_equal_a_rescan_through_eviction_and_clones(self, steps, app):
        state = SessionState.fresh(AppCatalog().get(app))
        assert state.window_counts() == rescanned_window_counts(state)
        for event_type, navigates, fork in steps:
            if fork:
                original = state
                state = state.clone()
                assert state.window_counts() == rescanned_window_counts(original)
            state.apply_event(event_type, state.dom.root.node_id, navigates=navigates)
            assert len(state.history) <= FEATURE_WINDOW
            assert state.window_counts() == rescanned_window_counts(state)
            if fork:
                # The clone's events never reach the state it was cloned from.
                assert original.window_counts() == rescanned_window_counts(original)

    def test_a_state_built_on_a_history_counts_it(self, state):
        for event_type in (EventType.CLICK, EventType.SCROLL, EventType.TOUCHMOVE):
            state.apply_event(event_type, state.dom.root.node_id, navigates=event_type is EventType.CLICK)
        rebuilt = SessionState(
            profile=state.profile,
            dom=state.dom,
            semantic=state.semantic,
            history=state.history.copy(),
        )
        assert rebuilt.window_counts() == rescanned_window_counts(state) == (3, 1, 2)
