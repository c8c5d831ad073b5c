"""Unit tests for the DOM tree model and viewport queries."""

import pytest

from repro.webapp.dom import DomNode, DomTree, Viewport
from repro.webapp.events import EventType


def build_tree() -> DomTree:
    root = DomNode(tag="body", node_id="body", y=0, height=2000, width=360, listeners=frozenset({EventType.SCROLL}))
    button = root.append_child(
        DomNode(
            tag="button",
            node_id="btn",
            y=100,
            height=50,
            width=200,
            listeners={EventType.CLICK},
        )
    )
    hidden = root.append_child(
        DomNode(tag="div", node_id="menu", y=160, height=100, width=360, display="none")
    )
    hidden.append_child(
        DomNode(tag="a", node_id="menu-item", y=160, height=40, width=360, is_link=True, listeners={EventType.CLICK})
    )
    root.append_child(
        DomNode(tag="a", node_id="deep-link", y=1500, height=40, width=360, is_link=True, listeners={EventType.CLICK})
    )
    assert button.parent is root
    return DomTree(root=root, viewport=Viewport(width=360, height=640), page_height=2000)


class TestViewport:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            Viewport(width=0, height=100)
        with pytest.raises(ValueError):
            Viewport(width=100, height=100, scroll_y=-1)


class TestDomTree:
    def test_scroll_clamps_at_zero(self):
        tree = DomTree(root=DomNode("body", "root", height=2000), viewport=Viewport(scroll_y=100))
        tree.scroll(-500)
        assert tree.viewport == Viewport(scroll_y=0.0)

    def test_walk_visits_all_nodes(self):
        tree = build_tree()
        assert len(list(tree.walk())) == 5

    def test_find_by_id(self):
        tree = build_tree()
        assert tree.find("btn").tag == "button"
        with pytest.raises(KeyError):
            tree.find("nope")

    def test_display_none_subtree_is_not_displayed(self):
        tree = build_tree()
        assert not tree.find("menu-item").is_displayed
        tree.find("menu").display = "block"
        assert tree.find("menu-item").is_displayed

    def test_visibility_respects_viewport(self):
        tree = build_tree()
        visible_ids = {n.node_id for n in tree.visible_nodes()}
        assert "btn" in visible_ids
        assert "deep-link" not in visible_ids

    def test_scroll_brings_deep_content_into_view(self):
        tree = build_tree()
        tree.scroll(1200)
        visible_ids = {n.node_id for n in tree.visible_nodes()}
        assert "deep-link" in visible_ids

    def test_scroll_clamps_to_page_height(self):
        tree = build_tree()
        tree.scroll(10_000)
        assert tree.viewport.scroll_y == pytest.approx(2000 - 640)

    def test_visible_event_types_excludes_hidden_listeners(self):
        tree = build_tree()
        events = tree.visible_event_types()
        assert EventType.CLICK in events
        assert EventType.SCROLL in events

    def test_clickable_region_fraction_bounds(self):
        tree = build_tree()
        fraction = tree.clickable_region_fraction()
        assert 0.0 < fraction <= 1.0

    def test_clickable_region_grows_when_menu_expands(self):
        tree = build_tree()
        before = tree.clickable_region_fraction()
        tree.find("menu").display = "block"
        assert tree.clickable_region_fraction() > before

    def test_visible_link_fraction(self):
        tree = build_tree()
        assert tree.visible_link_fraction() == pytest.approx(0.0)
        tree.find("menu").display = "block"
        assert tree.visible_link_fraction() > 0.0

    def test_toggle_display_flips(self):
        tree = build_tree()
        menu = tree.find("menu")
        menu.toggle_display()
        assert menu.display == "block"
        menu.toggle_display()
        assert menu.display == "none"

    def test_negative_dimensions_rejected(self):
        with pytest.raises(ValueError):
            DomNode(tag="div", node_id="x", height=-1)

    def test_is_clickable_checks_pointer_listeners(self):
        assert DomNode(tag="a", node_id="a", listeners={EventType.TOUCHSTART}).is_clickable
        assert DomNode(tag="f", node_id="f", listeners={EventType.SUBMIT}).is_clickable
        assert not DomNode(tag="d", node_id="d", listeners={EventType.SCROLL}).is_clickable


class TestDomNodeEquality:
    def test_tree_equals_its_clone(self):
        # ``parent`` is excluded from comparison; comparing it used to
        # recurse back up the tree forever.
        tree = build_tree()
        assert tree.root == tree.root.clone()
        assert tree.root == tree.clone().root

    def test_tree_differs_from_clone_after_display_flip(self):
        tree = build_tree()
        twin = tree.clone()
        twin.find("menu").display = "block"
        assert twin.root != tree.root

