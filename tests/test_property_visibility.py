"""Differential tests (hypothesis) of the visibility snapshot and cloned states.

The fast path walks each DOM state once, prunes hidden subtrees and shares
the document and its views between clones.  The reference here is the
deliberately naive definition of visibility — every node, its own ancestor
walk, its own viewport test — and the queries built on it must agree
exactly, on a live session state and on every clone taken from it.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.predictor.dom_analysis import DomAnalyzer
from repro.core.predictor.features import EventLabelEncoder
from repro.traces.generator import TraceGenerator
from repro.traces.session_state import SessionState
from repro.webapp.apps import AppCatalog
from repro.webapp.dom import DomView
from repro.webapp.events import EventType
from repro.webapp.semantic_tree import CallbackEffect, EffectKind

from naive_dom import naive_visible

CATALOG = AppCatalog()
ANALYZER = DomAnalyzer(EventLabelEncoder())
GENERATOR = TraceGenerator(catalog=CATALOG)
PICKED_EVENTS = (EventType.CLICK, EventType.TOUCHSTART, EventType.SUBMIT, EventType.SCROLL)


class NaiveView(SessionState):
    """A read-only view of a state whose visibility is recomputed naively."""

    def view(self):
        return DomView.of(self.dom, naive_visible(self.dom))


def naive_view(state: SessionState) -> NaiveView:
    return NaiveView(
        profile=state.profile,
        dom=state.dom,
        semantic=state.semantic,
        doc_index=state.doc_index,
        history=state.history,
        last_navigated=state.last_navigated,
    )


def observe(state: SessionState) -> tuple:
    """Features, LNES and the target picks of the analyser and the generator."""
    analyzer_picks = []
    generator_picks = []
    for event_type in PICKED_EVENTS:
        target = ANALYZER.representative_target(state, event_type)
        analyzer_picks.append(None if target is None else target.node_id)
        node, navigates = GENERATOR._pick_target(state, event_type, np.random.default_rng(7))
        generator_picks.append((None if node is None else node.node_id, navigates))
    return (
        tuple(state.features()),
        state.available_events(),
        tuple(analyzer_picks),
        tuple(generator_picks),
    )


def node_ids(state: SessionState, marker: str) -> list[str]:
    return [n.node_id for n in state.dom.walk() if marker in n.node_id]


def act(state: SessionState, kind: str, index: int) -> None:
    """Apply one user action; a pending navigation always loads first."""
    root_id = state.dom.root.node_id
    if state.last_navigated:
        state.apply_event(EventType.LOAD, root_id)
    elif kind == "scroll":
        state.apply_event(EventType.SCROLL, root_id)
    elif kind == "move":
        state.apply_event(EventType.TOUCHMOVE, root_id)
    elif kind == "toggle":
        buttons = node_ids(state, "-menu-btn-")
        if buttons:
            state.apply_event(EventType.CLICK, buttons[index % len(buttons)])
    elif kind == "top":
        # A navigation link replayed as non-navigating scrolls back to the top.
        links = node_ids(state, "-nav-")
        if links:
            state.apply_event(EventType.CLICK, links[index % len(links)], navigates=False)
    elif kind == "navigate":
        links = node_ids(state, "-nav-")
        if links:
            state.apply_event(EventType.CLICK, links[index % len(links)])


actions = st.lists(
    st.tuples(
        st.sampled_from(["scroll", "move", "toggle", "top", "navigate"]),
        st.integers(min_value=0, max_value=7),
        st.booleans(),
    ),
    max_size=20,
)


class TestVisibilitySnapshotDifferential:
    @given(app=st.sampled_from(list(CATALOG.profiles)), steps=actions)
    @settings(max_examples=40, deadline=None)
    def test_live_state_and_clones_match_naive_reference(self, app, steps):
        live = SessionState.fresh(CATALOG.get(app))
        mirror = live.clone()
        frozen: list[tuple[SessionState, tuple]] = []
        for kind, index, fork in steps:
            act(live, kind, index)
            act(mirror, kind, index)
            if fork:
                # A roll-forward branch: a fresh clone replaces the mirror
                # and another is parked, never to be touched again.
                mirror = live.clone()
                parked = live.clone()
                frozen.append((parked, observe(naive_view(parked))))
            expected = observe(naive_view(live))
            assert observe(live) == expected
            assert observe(mirror) == expected
        for parked, expected in frozen:
            assert observe(parked) == expected
            assert observe(naive_view(parked)) == expected

    @given(
        app=st.sampled_from(list(CATALOG.profiles)),
        steps=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.sampled_from(["scroll", "move", "toggle", "top", "clone"]),
                st.integers(min_value=0, max_value=7),
            ),
            max_size=25,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_clones_of_one_served_document_share_views_exactly(self, app, steps):
        # Sessions served the same document, and clones of them, share one
        # view memo.  Every state is queried after every step, so a clone
        # that toggles or scrolls next does so after the others have filled
        # the memo, and each query must still equal the naive walk.
        profile = CATALOG.get(app)
        states = [SessionState.fresh(profile), SessionState.fresh(profile)]
        states += [states[0].clone(), states[1].clone()]
        for who, kind, index in steps:
            if kind == "clone":
                states[who] = states[(who + 1) % len(states)].clone()
            else:
                act(states[who], kind, index)
            for state in states:
                assert observe(state) == observe(naive_view(state))
                naive = naive_visible(state.dom)
                view = state.dom.view()
                assert [id(n) for n in view.nodes] == [id(n) for n in naive]
                assert view == DomView.of(state.dom, naive)

    @given(
        app=st.sampled_from(list(CATALOG.profiles)),
        writes=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=200),
                st.sampled_from([EffectKind.TOGGLE_DISPLAY, EffectKind.SHOW, EffectKind.HIDE]),
                st.floats(min_value=0.0, max_value=900.0),
                st.booleans(),
            ),
            max_size=15,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_direct_tree_queries_match_naive_reference(self, app, writes):
        # Uncached DomTree queries under arbitrary display effects on any
        # node and scrolls, landing on a tree or on any clone branched off it.
        tree, _ = CATALOG.get(app).build_dom(np.random.default_rng(0))
        trees = [tree]
        for index, kind, scroll, fork in writes:
            target = trees[index % len(trees)]
            ids = [n.node_id for n in target.walk()]
            CallbackEffect(kind=kind, target_node_ids=(ids[index % len(ids)],)).apply(target)
            target.scroll(scroll - target.viewport.scroll_y)
            if fork:
                trees.append(target.clone())
            for each in trees:
                naive = naive_visible(each)
                assert isinstance(each.visible_nodes(), list)
                assert [id(n) for n in each.visible_nodes()] == [id(n) for n in naive]
                assert each.clickable_region_fraction() == each.clickable_region_fraction(naive)
                assert each.visible_link_fraction() == each.visible_link_fraction(naive)
                assert each.visible_event_types() == each.visible_event_types(naive)
