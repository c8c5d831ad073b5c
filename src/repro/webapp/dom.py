"""DOM tree model with event listeners and viewport visibility.

The predictor's program analysis (Sec. 5.2) walks the part of the DOM tree
that is inside the current viewport and collects the events registered on
visible nodes — the Likely-Next-Event-Set (LNES).  The model here captures
exactly what that analysis needs: a tree of nodes, each with a bounding box,
a set of registered event listeners, and a visibility style.

A served document never changes once built.  What callbacks change is the
DOM *state*: a :class:`DomTree` is the document, the viewport and the set of
nodes whose display is flipped from the document's, so the state after a
callback is derived statically, as the paper's DOM analysis does.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.utils import ValidatedRecord
from repro.webapp.events import EventType

#: Listener types that make a node count towards the clickable region.
_CLICK_EVENTS: frozenset[EventType] = frozenset({EventType.CLICK, EventType.TOUCHSTART, EventType.SUBMIT})

#: The two display styles a node can have; flipping one gives the other.
_DISPLAYS: tuple[str, str] = ("block", "none")


class Viewport(ValidatedRecord, namedtuple("Viewport", "width height scroll_y")):
    """The visible region of the page in CSS pixels."""

    __slots__ = ()

    def __new__(cls, width: float = 360.0, height: float = 640.0, scroll_y: float = 0.0) -> Viewport:
        if not (0.0 < width < math.inf and 0.0 < height < math.inf):
            raise ValueError("viewport dimensions must be positive and finite")
        if not 0.0 <= scroll_y < math.inf:
            raise ValueError("scroll offset must be non-negative and finite")
        return tuple.__new__(cls, (width, height, scroll_y))

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass(slots=True)
class DomNode:
    """One element of the DOM tree.

    Geometry is simplified to a vertical extent (``y``/``height``) plus a
    width, which is all the viewport-intersection analysis needs, and an
    ``area`` for the clickable-region feature.  ``display`` is the
    document's style, ``"block"`` or ``"none"``; a DOM state flips it
    without writing the node (see :class:`DomTree`).  Nodes are linked with
    :meth:`append_child` while a document is built and never written once a
    tree holds them, so every state and session of a document shares them.
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
        if not (0.0 <= self.height < math.inf and 0.0 <= self.width < math.inf):
            raise ValueError("node dimensions must be non-negative and finite")
        if not -math.inf < self.y < math.inf:
            raise ValueError("node position must be finite")
        if self.display not in _DISPLAYS:
            raise ValueError(f"display must be one of {_DISPLAYS}, got {self.display!r}")

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
    def is_clickable(self) -> bool:
        return not self.listeners.isdisjoint(_CLICK_EVENTS)

    def walk(self) -> Iterator["DomNode"]:
        """Pre-order traversal of the subtree rooted at this node."""
        yield self
        for child in self.children:
            yield from child.walk()


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
    immutable.  A view from :meth:`DomTree.view` stands for one served
    document with its Semantic Tree, one flipped set and one viewport, so
    its memo serves every session and roll-forward that reaches that state.
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
    """One DOM state: a document, the viewport, and the nodes whose display is flipped.

    The document (``root`` and the page height) is never written.
    ``flipped`` is the frozenset of node ids whose display differs from the
    document's.  :meth:`set_display` replaces it and :meth:`scroll` replaces
    the viewport; :class:`~repro.webapp.semantic_tree.CallbackEffect` calls
    both.  Every tree of one document shares its node index and its view
    memo (see :meth:`clone`).

    Provides the aggregate queries the predictor features (Table 1) and the
    DOM analysis need: visible-node iteration, clickable-region percentage,
    visible-link percentage, and the set of events registered on visible
    nodes.
    """

    def __init__(self, root: DomNode, viewport: Viewport | None = None, page_height: float | None = None):
        self.root = root
        self.viewport = viewport or Viewport()
        self.flipped: frozenset[str] = frozenset()
        self._page_height = page_height
        # Shared by every tree of this document: the nodes by id, and the
        # views by (flipped set, viewport).
        self._nodes: dict[str, DomNode] = {}
        for node in root.walk():
            if self._nodes.setdefault(node.node_id, node) is not node:
                raise ValueError(f"duplicate DOM node id {node.node_id!r}")
        self._views: dict[tuple[frozenset[str], Viewport], DomView] = {}

    # -- traversal ---------------------------------------------------------

    def walk(self) -> Iterator[DomNode]:
        """Pre-order traversal of the document's nodes."""
        return self.root.walk()

    def visible_nodes(self) -> list[DomNode]:
        """Displayed nodes intersecting the viewport, in pre-order.

        One explicit-stack pass that skips hidden subtrees whole, so no node
        re-walks its ancestors.  A node is hidden when its document display
        is ``none`` or its id is flipped, but not both.
        """
        top = self.viewport.scroll_y
        bottom = top + self.viewport.height
        flipped = self.flipped
        visible: list[DomNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if (node.display == "none") != (node.node_id in flipped):
                continue
            if node.y < bottom and node.y + node.height > top:
                visible.append(node)
            if node.children:
                stack.extend(reversed(node.children))
        return visible

    def view(self) -> DomView:
        """:class:`DomView` of the current state, walked once per document, flipped set and viewport.

        The document never changes, so a state any tree of it has reached
        returns the same view, with its ``memo``.
        """
        key = (self.flipped, self.viewport)
        view = self._views.get(key)
        if view is None:
            view = self._views[key] = DomView.of(self)
        return view

    def find(self, node_id: str) -> DomNode:
        """The document's node with ``node_id``; ``KeyError`` when there is none."""
        return self._nodes[node_id]

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
        """A copy of this state that changes independently of this one.

        It shares the document, its node index and its view memo; the
        viewport and the flipped set are immutable, so sharing them too
        copies nothing.
        """
        twin = DomTree.__new__(DomTree)
        twin.__dict__.update(self.__dict__)
        return twin

    # -- state changes -----------------------------------------------------

    def set_display(self, node_id: str, display: str | None) -> None:
        """Give ``node_id`` ``display`` in this state, or flip its display when ``display`` is None.

        Replaces :attr:`flipped`, which holds a node exactly when its display
        differs from the document's.
        """
        node = self.find(node_id)
        if display is None:
            self.flipped ^= {node_id}
        elif display == node.display:
            self.flipped -= {node_id}
        else:
            self.flipped |= {node_id}

    def scroll(self, delta_y: float) -> None:
        """Scroll the viewport, clamped at the top and, when known, to the page height."""
        viewport = self.viewport
        scroll_y = max(0.0, viewport.scroll_y + delta_y)
        if self._page_height is not None:
            scroll_y = min(scroll_y, max(0.0, self._page_height - viewport.height))
        self.viewport = Viewport(viewport.width, viewport.height, scroll_y)
