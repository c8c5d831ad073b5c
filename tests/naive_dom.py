"""Naive DOM-state references shared by the differential tests.

The package keeps a DOM state as (served document, flipped node ids,
viewport) and walks each state once.  The definitions here are the plain
ones to test against: every node's own ancestor walk and viewport test,
and a private deep copy of a state's nodes with each flipped display
written in place.
"""

import copy

from repro.webapp.dom import DomNode, DomTree

FLIP = {"block": "none", "none": "block"}


def displayed(tree: DomTree, node: DomNode) -> bool:
    """Whether ``node`` and every ancestor of it are displayed in ``tree``'s state."""
    while node is not None:
        if (node.display == "none") != (node.node_id in tree.flipped):
            return False
        node = node.parent
    return True


def naive_visible(tree: DomTree) -> list[DomNode]:
    """``tree.visible_nodes()`` by its definition: each node tested on its own, in pre-order."""
    top, height = tree.viewport.scroll_y, tree.viewport.height
    return [n for n in tree.walk() if displayed(tree, n) and n.y < top + height and n.y + n.height > top]


def materialised_root(tree: DomTree) -> DomNode:
    """A deep copy of ``tree``'s nodes with every flipped display written in place."""
    root = copy.deepcopy(tree.root)
    for node in root.walk():
        if node.node_id in tree.flipped:
            node.display = FLIP[node.display]
    return root
