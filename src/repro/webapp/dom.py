"""DOM tree model with event listeners and viewport visibility.

The predictor's program analysis (Sec. 5.2) walks the part of the DOM tree
that is inside the current viewport and collects the events registered on
visible nodes — the Likely-Next-Event-Set (LNES).  The model here captures
exactly what that analysis needs: a tree of nodes, each with a bounding box,
a set of registered event listeners, and a visibility style.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.webapp.events import EventType

#: Listener types that make a node count towards the clickable region.
_CLICK_EVENTS: frozenset[EventType] = frozenset({EventType.CLICK, EventType.TOUCHSTART, EventType.SUBMIT})


@dataclass(frozen=True)
class Viewport:
    """The visible region of the page in CSS pixels."""

    width: float = 360.0
    height: float = 640.0
    scroll_y: float = 0.0

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("viewport dimensions must be positive")
        if self.scroll_y < 0:
            raise ValueError("scroll offset must be non-negative")

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass(slots=True)
class DomNode:
    """One element of the DOM tree.

    Geometry is simplified to a vertical extent (``y``/``height``) plus a
    width, which is all the viewport-intersection analysis needs, and an
    ``area`` for the clickable-region feature.  ``listeners`` is immutable,
    so nodes and their clones may share one set.
    """

    tag: str
    node_id: str
    y: float = 0.0
    height: float = 20.0
    width: float = 360.0
    display: str = "block"
    listeners: frozenset[EventType] = frozenset()
    is_link: bool = False
    children: tuple["DomNode", ...] = ()
    parent: "DomNode | None" = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.height < 0 or self.width < 0:
            raise ValueError("node dimensions must be non-negative")

    # -- tree construction -------------------------------------------------

    def append_child(self, child: "DomNode") -> "DomNode":
        child.parent = self
        self.children += (child,)
        return child

    # -- queries -----------------------------------------------------------

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def is_displayed(self) -> bool:
        """Whether this node (and all ancestors) have a non-``none`` display."""
        node: DomNode | None = self
        while node is not None:
            if node.display == "none":
                return False
            node = node.parent
        return True

    @property
    def is_clickable(self) -> bool:
        return not self.listeners.isdisjoint(_CLICK_EVENTS)

    def walk(self) -> Iterator["DomNode"]:
        """Pre-order traversal of the subtree rooted at this node."""
        yield self
        for child in self.children:
            yield from child.walk()

    def clone(self) -> "DomNode":
        """Structured deep copy of the subtree rooted at this node.

        Hand-rolled instead of ``copy.deepcopy``.  :meth:`DomTree.find` calls
        it to give a copy-on-write tree its private node graph, once, before
        the first mutation; clones that are only scrolled never copy.  Hence
        the contract: mutate nodes only through references obtained from
        ``find``.  The copy has its own children and shares the immutable
        listener set; the parent pointer of the returned root is left unset.
        """
        copied = DomNode(self.tag, self.node_id, self.y, self.height, self.width, self.display, self.listeners, self.is_link)
        for child in self.children:
            copied.append_child(child.clone())
        return copied

    def toggle_display(self) -> None:
        """Flip between ``block`` and ``none`` (the Fig. 7 collapsible menu)."""
        self.display = "none" if self.display == "block" else "block"


@dataclass(frozen=True, slots=True)
class DomView:
    """One DOM state seen through one viewport: the visible nodes and their aggregates.

    ``nodes`` is :meth:`DomTree.visible_nodes` and the other fields are the
    :class:`DomTree` aggregate queries over it.  Views are shared between
    trees and session states, so never mutate ``nodes``.

    ``memo`` holds pure functions of the DOM state behind the view, filled
    on first use by whoever computes them (whole prediction rounds, the
    user model's ranking and tap targets).  Each key names the function
    and every input beyond the DOM state, by value; each value is
    immutable.  A view only ever describes one DOM state, so every memo
    follows this one rule.  A view of a shared graph (see
    :meth:`DomTree.view`) stands for one served document with its Semantic
    Tree in one viewport, so its memo serves every session that reaches the
    state; a private graph's view is dropped when its state changes.
    """

    nodes: list[DomNode]
    clickable_fraction: float
    link_fraction: float
    listeners: frozenset[EventType]
    memo: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def of(cls, tree: "DomTree", visible: list[DomNode] | None = None) -> "DomView":
        """The view of ``tree``'s current state; ``visible`` defaults to a fresh walk."""
        if visible is None:
            visible = tree.visible_nodes()
        return cls(
            visible,
            tree.clickable_region_fraction(visible),
            tree.visible_link_fraction(visible),
            frozenset(tree.visible_event_types(visible)),
        )


class DomTree:
    """A DOM tree plus the page viewport.

    Provides the aggregate queries the predictor features (Table 1) and the
    DOM analysis need: visible-node iteration, clickable-region percentage,
    visible-link percentage, and the set of events registered on visible
    nodes.  Clones are copy-on-write (see :meth:`clone`).
    """

    def __init__(self, root: DomNode, viewport: Viewport | None = None, page_height: float | None = None):
        self.root = root
        self.viewport = viewport or Viewport()
        self._page_height = page_height
        # Views by viewport, shared by every tree on ``root``'s node graph;
        # None while the graph is private to this tree (and may be mutated).
        self._views: dict[Viewport, DomView] | None = None

    # -- traversal ---------------------------------------------------------

    def walk(self) -> Iterator[DomNode]:
        return self.root.walk()

    def visible_nodes(self) -> list[DomNode]:
        """Displayed nodes intersecting the viewport, in pre-order.

        One explicit-stack pass that skips ``display: none`` subtrees whole,
        so no node re-walks its ancestors.
        """
        top = self.viewport.scroll_y
        bottom = top + self.viewport.height
        visible: list[DomNode] = []
        stack = [self.root] if self.root.is_displayed else []
        while stack:
            node = stack.pop()
            if node.display == "none":
                continue
            if node.y < bottom and node.y + node.height > top:
                visible.append(node)
            if node.children:
                stack.extend(reversed(node.children))
        return visible

    def view(self) -> DomView:
        """:class:`DomView` of the current state.

        While the node graph is shared (see :meth:`clone`) it cannot change,
        so every tree on it shares one memo by viewport: a state any of them
        has seen is walked once, and the view's own ``memo`` is reused with
        it.  A private graph may be mutated, so it is walked on every call
        and each call returns a new view with an empty memo.
        """
        views = self._views
        if views is None:
            return DomView.of(self)
        view = views.get(self.viewport)
        if view is None:
            view = views[self.viewport] = DomView.of(self)
        return view

    def find(self, node_id: str) -> DomNode:
        """The node with ``node_id``; the returned reference may be mutated.

        On a copy-on-write clone this first copies the node graph, so the
        mutation stays private to this tree; the copy leaves the shared view
        memo behind.
        """
        if self._views is not None:
            self.root = self.root.clone()
            self._views = None
        for node in self.walk():
            if node.node_id == node_id:
                return node
        raise KeyError(f"no DOM node with id {node_id!r}")

    # -- aggregate features (Table 1, application-inherent) -----------------
    #
    # Each query takes an optional precomputed ``visible_nodes()`` list so a
    # caller asking several of them about one DOM state walks it once.

    def clickable_region_fraction(self, visible: Sequence[DomNode] | None = None) -> float:
        """Fraction of the viewport area covered by visible clickable nodes."""
        if visible is None:
            visible = self.visible_nodes()
        clickable_area = sum(n.area for n in visible if n.is_clickable)
        return min(1.0, clickable_area / self.viewport.area)

    def visible_link_fraction(self, visible: Sequence[DomNode] | None = None) -> float:
        """Fraction of visible nodes that are hyperlinks."""
        if visible is None:
            visible = self.visible_nodes()
        if not visible:
            return 0.0
        return sum(1 for n in visible if n.is_link) / len(visible)

    def visible_event_types(self, visible: Sequence[DomNode] | None = None) -> set[EventType]:
        """Events registered on nodes inside the viewport (LNES ingredient)."""
        if visible is None:
            visible = self.visible_nodes()
        events: set[EventType] = set()
        for node in visible:
            events |= node.listeners
        return events

    def clone(self) -> "DomTree":
        """Copy-on-write copy of the tree (the viewport is immutable and shared).

        The clone shares this tree's node graph and its view memo; whichever
        tree calls :meth:`find` first copies the graph for itself and drops
        the memo, so mutate nodes only through references obtained from
        ``find``.  Scrolling swaps the viewport and never copies, so a
        hypothetical roll-forward copies the tree only when it toggles a node.
        """
        if self._views is None:
            self._views = {}
        twin = DomTree(self.root, viewport=self.viewport, page_height=self._page_height)
        twin._views = self._views
        return twin

    # -- mutation ----------------------------------------------------------

    def scroll(self, delta_y: float) -> None:
        """Scroll the viewport, clamped at the top and, when known, to the page height."""
        viewport = self.viewport
        scroll_y = max(0.0, viewport.scroll_y + delta_y)
        if self._page_height is not None:
            scroll_y = min(scroll_y, max(0.0, self._page_height - viewport.height))
        self.viewport = Viewport(viewport.width, viewport.height, scroll_y)
