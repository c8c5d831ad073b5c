"""Differential tests (hypothesis) of the DOM state model against a naive reference.

A DOM state is a served document, the set of node ids whose display is
flipped from the document's, and the viewport.  The document is never
written, and every state of it is walked once per process.  The reference
is the model before that: a private deep copy of the served document whose
displays are flipped in place, its own scroll offset, and a walk that tests
every node's ancestors.  The same random toggles, scrolls and navigations
drive both on every app's first served documents.  After every step they
must agree on the visible node ids, the bits of the aggregate floats and
the LNES, and one state reached by two paths must be one ``DomView``.
"""

import copy

from hypothesis import given, settings, strategies as st

from repro.traces.session_state import SessionState, _serve_document
from repro.webapp.apps import AppCatalog
from repro.webapp.events import POINTER_EVENT_TYPES, EventType
from repro.webapp.semantic_tree import EffectKind

from naive_dom import FLIP

CATALOG = AppCatalog()
CLICKABLE = frozenset({EventType.CLICK, EventType.TOUCHSTART, EventType.SUBMIT})


class NaiveState:
    """One session's DOM state kept the old way: a private node tree written in place."""

    def __init__(self, profile):
        self.profile = profile
        self.load(0)

    def load(self, doc_index: int) -> None:
        served, semantic = _serve_document(self.profile, doc_index)
        self.doc_index = doc_index
        self.root = copy.deepcopy(served.root)
        self.nodes = {n.node_id: n for n in self.root.walk()}
        self.effects = dict(semantic.effects)
        self.width, self.height = served.viewport.width, served.viewport.height
        self.scroll_y = served.viewport.scroll_y
        self.pending = False

    def apply(self, event_type: EventType, node_id: str, navigates: bool | None = None) -> None:
        if event_type is EventType.LOAD:
            self.load(self.doc_index + 1)
            return
        effect = self.effects.get((node_id, event_type))
        self.pending = (effect is not None and effect.navigates) if navigates is None else navigates
        if self.pending or effect is None:
            return
        if effect.kind is EffectKind.SCROLL_BY:
            page_height = self.root.height
            self.scroll_y = min(max(0.0, self.scroll_y + effect.scroll_delta_y), max(0.0, page_height - self.height))
        elif effect.kind is EffectKind.NAVIGATE:
            self.scroll_y = 0.0
        elif effect.kind is EffectKind.TOGGLE_DISPLAY:
            for target in effect.target_node_ids:
                self.nodes[target].display = FLIP[self.nodes[target].display]

    def shown(self, node) -> bool:
        while node is not None:
            if node.display == "none":
                return False
            node = node.parent
        return True

    def observe(self) -> tuple:
        top, bottom = self.scroll_y, self.scroll_y + self.height
        visible = [n for n in self.root.walk() if self.shown(n) and n.y < bottom and n.y + n.height > top]
        clickable = min(1.0, sum(n.width * n.height for n in visible if n.listeners & CLICKABLE) / (self.width * self.height))
        links = sum(n.is_link for n in visible) / len(visible) if visible else 0.0
        if self.pending:
            lnes = frozenset({EventType.LOAD})
        else:
            lnes = frozenset(e for n in visible for e in n.listeners if e in POINTER_EVENT_TYPES)
        return tuple(n.node_id for n in visible), clickable.hex(), links.hex(), lnes


def observe(state: SessionState) -> tuple:
    view = state.view()
    assert [n.node_id for n in state.dom.visible_nodes()] == [n.node_id for n in view.nodes]
    return (
        tuple(n.node_id for n in view.nodes),
        view.clickable_fraction.hex(),
        view.link_fraction.hex(),
        state.available_events(),
    )


def ids_with(state: SessionState, marker: str) -> list[str]:
    return [n.node_id for n in state.dom.walk() if marker in n.node_id]


def act(state, naive: NaiveState, kind: str, index: int) -> None:
    """Apply one user action to both sides; a pending navigation always loads first."""
    root_id = state.dom.root.node_id
    if state.last_navigated:
        steps = [(EventType.LOAD, root_id, None)]
    elif kind in ("scroll", "move"):
        steps = [(EventType.SCROLL if kind == "scroll" else EventType.TOUCHMOVE, root_id, None)]
    else:
        marker = "-menu-btn-" if kind == "toggle" else "-nav-"
        targets = ids_with(state, marker)
        # "top" replays a navigation link as non-navigating: it scrolls to the top.
        navigates = False if kind == "top" else None
        steps = [(EventType.CLICK, targets[index % len(targets)], navigates)] if targets else []
    for event_type, node_id, navigates in steps:
        state.apply_event(event_type, node_id, navigates=navigates)
        naive.apply(event_type, node_id, navigates=navigates)


steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.sampled_from(["toggle", "toggle", "scroll", "move", "top", "navigate", "fork"]),
        st.integers(min_value=0, max_value=7),
    ),
    max_size=25,
)


class TestDomStateDifferential:
    @given(app=st.sampled_from(list(CATALOG.profiles)), steps=steps)
    @settings(max_examples=60, deadline=None)
    def test_states_match_a_private_tree_written_in_place(self, app, steps):
        profile = CATALOG.get(app)
        pairs = [(SessionState.fresh(profile), NaiveState(profile)) for _ in range(3)]
        views = {}
        for who, kind, index in steps:
            if kind == "fork":
                state, naive = pairs[(who + 1) % len(pairs)]
                pairs[who] = (state.clone(), copy.deepcopy(naive))
            else:
                act(*pairs[who], kind, index)
            for state, naive in pairs:
                assert state.doc_index == naive.doc_index
                assert observe(state) == naive.observe()
                # Every path to one (document, flipped set, viewport) ends at one view.
                key = (state.doc_index, state.dom.flipped, state.dom.viewport)
                assert views.setdefault(key, state.view()) is state.view()

    def test_toggles_in_either_order_reach_one_view(self):
        profile = CATALOG.get("amazon")
        a, b = SessionState.fresh(profile), SessionState.fresh(profile)
        first, second = ids_with(a, "-menu-btn-")[:2]
        start = a.view()
        for state, order in ((a, (first, second)), (b, (second, first))):
            for button in order:
                state.apply_event(EventType.CLICK, button)
        assert a.dom.flipped == b.dom.flipped and len(a.dom.flipped) == 2
        assert a.view() is b.view()
        for button in (first, second):
            a.apply_event(EventType.CLICK, button)
        assert a.dom.flipped == frozenset()
        assert a.view() is start
