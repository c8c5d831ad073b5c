"""Unit tests for the Semantic Tree (memoised callback effects)."""

import pytest

from repro.webapp.dom import DomNode, DomTree, Viewport
from repro.webapp.events import EventType
from repro.webapp.semantic_tree import CallbackEffect, EffectKind, SemanticTree


@pytest.fixture
def tree() -> DomTree:
    root = DomNode(tag="body", node_id="body", y=0, height=3000, width=360)
    root.append_child(
        DomNode(tag="button", node_id="toggle", y=10, height=40, width=360, listeners={EventType.CLICK})
    )
    root.append_child(DomNode(tag="div", node_id="menu", y=60, height=120, width=360, display="none"))
    return DomTree(root=root, viewport=Viewport(), page_height=3000)


def menu_shown(tree: DomTree) -> bool:
    return "menu" in {n.node_id for n in tree.visible_nodes()}


class TestCallbackEffect:
    def test_toggle_display(self, tree):
        effect = CallbackEffect(kind=EffectKind.TOGGLE_DISPLAY, target_node_ids=("menu",))
        effect.apply(tree)
        assert menu_shown(tree)
        effect.apply(tree)
        assert not menu_shown(tree)
        assert tree.find("menu").display == "none"

    def test_show_and_hide(self, tree):
        CallbackEffect(kind=EffectKind.SHOW, target_node_ids=("menu",)).apply(tree)
        assert menu_shown(tree)
        CallbackEffect(kind=EffectKind.HIDE, target_node_ids=("menu",)).apply(tree)
        assert not menu_shown(tree)
        assert tree.find("menu").display == "none"

    def test_scroll_by_moves_viewport(self, tree):
        CallbackEffect(kind=EffectKind.SCROLL_BY, scroll_delta_y=400.0).apply(tree)
        assert tree.viewport.scroll_y == pytest.approx(400.0)

    def test_navigate_resets_scroll(self, tree):
        tree.scroll(500)
        CallbackEffect(kind=EffectKind.NAVIGATE, navigates=True).apply(tree)
        assert tree.viewport.scroll_y == pytest.approx(0.0)

    def test_none_effect_is_a_noop(self, tree):
        before = tree.viewport.scroll_y
        CallbackEffect().apply(tree)
        assert tree.viewport.scroll_y == before
        assert not menu_shown(tree)


class TestSemanticTree:
    def test_register_and_lookup(self):
        semantic = SemanticTree()
        effect = CallbackEffect(kind=EffectKind.TOGGLE_DISPLAY, target_node_ids=("menu",))
        semantic.register("toggle", EventType.CLICK, effect)
        assert semantic.has_effect("toggle", EventType.CLICK)
        assert semantic.effect_of("toggle", EventType.CLICK) is effect
        assert len(semantic.effects) == 1

    def test_unknown_callback_returns_noop(self):
        semantic = SemanticTree()
        effect = semantic.effect_of("nothing", EventType.CLICK)
        assert effect.kind is EffectKind.NONE
        assert not effect.navigates

    def test_static_post_callback_state_matches_fig7_menu(self, tree):
        """The Fig. 7 scenario: the analyser can derive the post-click DOM
        state (menu expanded) without evaluating the callback."""
        semantic = SemanticTree()
        semantic.register(
            "toggle",
            EventType.CLICK,
            CallbackEffect(kind=EffectKind.TOGGLE_DISPLAY, target_node_ids=("menu",)),
        )
        semantic.effect_of("toggle", EventType.CLICK).apply(tree)
        assert menu_shown(tree)
