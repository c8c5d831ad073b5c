"""Unit tests for the DOM tree model and viewport queries."""

import math

import pytest

from repro.webapp.dom import DomNode, DomTree, Viewport
from repro.webapp.events import EventType
from repro.webapp.semantic_tree import CallbackEffect, EffectKind


def build_tree(menu_display: str = "none") -> DomTree:
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
        DomNode(tag="div", node_id="menu", y=160, height=100, width=360, display=menu_display)
    )
    hidden.append_child(
        DomNode(tag="a", node_id="menu-item", y=160, height=40, width=360, is_link=True, listeners={EventType.CLICK})
    )
    root.append_child(
        DomNode(tag="a", node_id="deep-link", y=1500, height=40, width=360, is_link=True, listeners={EventType.CLICK})
    )
    assert button.parent is root
    return DomTree(root=root, viewport=Viewport(width=360, height=640), page_height=2000)


def show(tree: DomTree, node_id: str) -> None:
    CallbackEffect(kind=EffectKind.SHOW, target_node_ids=(node_id,)).apply(tree)


def toggle(tree: DomTree, node_id: str) -> None:
    CallbackEffect(kind=EffectKind.TOGGLE_DISPLAY, target_node_ids=(node_id,)).apply(tree)


def visible_ids(tree: DomTree) -> set[str]:
    return {n.node_id for n in tree.visible_nodes()}


NOT_FINITE = (math.nan, math.inf, -math.inf)


class TestViewport:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            Viewport(width=0, height=100)
        with pytest.raises(ValueError):
            Viewport(width=100, height=100, scroll_y=-1)

    @pytest.mark.parametrize("value", NOT_FINITE)
    @pytest.mark.parametrize("name", ["width", "height", "scroll_y"])
    def test_rejects_non_finite_values(self, name, value):
        with pytest.raises(ValueError):
            Viewport(**{name: value})


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

    def test_find_returns_the_documents_node(self):
        tree = build_tree()
        assert tree.find("menu-item") in tree.find("menu").children
        assert tree.clone().find("menu") is tree.find("menu")

    def test_rejects_duplicate_node_ids(self):
        root = DomNode("body", "root")
        root.append_child(DomNode("div", "twin"))
        root.append_child(DomNode("div", "twin"))
        with pytest.raises(ValueError, match="twin"):
            DomTree(root)

    def test_display_none_subtree_is_not_displayed(self):
        tree = build_tree()
        assert "menu-item" not in visible_ids(tree)
        show(tree, "menu")
        assert "menu-item" in visible_ids(tree)

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
        show(tree, "menu")
        assert tree.clickable_region_fraction() > before

    def test_visible_link_fraction(self):
        tree = build_tree()
        assert tree.visible_link_fraction() == pytest.approx(0.0)
        show(tree, "menu")
        assert tree.visible_link_fraction() > 0.0

    def test_toggle_display_flips(self):
        tree = build_tree()
        toggle(tree, "menu")
        assert tree.flipped == {"menu"}
        assert "menu" in visible_ids(tree)
        toggle(tree, "menu")
        assert tree.flipped == frozenset()
        assert "menu" not in visible_ids(tree)
        # The document itself is never written.
        assert tree.find("menu").display == "none"

    def test_negative_dimensions_rejected(self):
        with pytest.raises(ValueError):
            DomNode(tag="div", node_id="x", height=-1)

    @pytest.mark.parametrize("value", NOT_FINITE)
    @pytest.mark.parametrize("name", ["y", "height", "width"])
    def test_non_finite_geometry_rejected(self, name, value):
        with pytest.raises(ValueError):
            DomNode(tag="div", node_id="x", **{name: value})

    @pytest.mark.parametrize("display", ["inline", "", "None"])
    def test_displays_other_than_block_and_none_rejected(self, display):
        with pytest.raises(ValueError, match="display"):
            DomNode(tag="div", node_id="x", display=display)

    def test_is_clickable_checks_pointer_listeners(self):
        assert DomNode(tag="a", node_id="a", listeners={EventType.TOUCHSTART}).is_clickable
        assert DomNode(tag="f", node_id="f", listeners={EventType.SUBMIT}).is_clickable
        assert not DomNode(tag="d", node_id="d", listeners={EventType.SCROLL}).is_clickable


class TestDomNodeEquality:
    def test_two_builds_of_one_document_are_equal(self):
        # ``parent`` is excluded from comparison; comparing it used to
        # recurse back up the tree forever.
        assert build_tree().root == build_tree().root

    def test_documents_that_differ_in_one_display_differ(self):
        assert build_tree("block").root != build_tree().root


class TestDomState:
    def test_a_flip_on_a_clone_leaves_the_document_and_the_original(self):
        tree = build_tree()
        twin = tree.clone()
        toggle(twin, "menu")
        assert twin.root is tree.root
        assert tree.flipped == frozenset() and twin.flipped == {"menu"}
        assert visible_ids(twin) == visible_ids(build_tree("block"))
        assert visible_ids(tree) == visible_ids(build_tree())

    def test_show_and_hide_flip_only_against_the_document(self):
        tree = build_tree()
        CallbackEffect(kind=EffectKind.HIDE, target_node_ids=("menu",)).apply(tree)
        assert tree.flipped == frozenset()
        show(tree, "menu")
        show(tree, "menu")
        assert tree.flipped == {"menu"}
        CallbackEffect(kind=EffectKind.HIDE, target_node_ids=("btn",)).apply(tree)
        assert tree.flipped == {"menu", "btn"}
        assert "btn" not in visible_ids(tree)

    def test_an_unknown_target_is_an_error(self):
        with pytest.raises(KeyError):
            toggle(build_tree(), "nope")

    def test_one_state_reached_two_ways_is_one_view(self):
        tree = build_tree()
        first = tree.view()
        twin = tree.clone()
        toggle(twin, "menu")
        twin.scroll(300)
        assert twin.view() is not first
        toggle(twin, "menu")
        twin.scroll(-300)
        assert twin.view() is first
        assert tree.clone().view() is first

