"""Catalog of the 18 benchmark applications.

The paper evaluates 12 "seen" applications (used for characterisation and
predictor training) plus 6 "unseen" applications (used only for evaluation,
to test generalisation).  The real pages are not available offline, so each
application is modelled by an :class:`AppProfile` whose parameters control

* the synthetic DOM / Semantic Tree the page exposes (clickable density,
  link density, number of content sections, collapsible menus),
* the user-behaviour model that drives trace generation (how predictable
  interaction sequences are), and
* the per-event compute workload (how heavy callbacks and rendering are).

The parameters are chosen so the qualitative spread reported in the paper is
preserved: e.g. ``slashdot`` (few clickable regions) is highly predictable
while ``google`` and ``amazon`` (dense, clickable pages) are harder; ``sina``
has many compute-light events; news pages like ``cnn`` carry heavy taps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.utils import stable_seed

from repro.webapp.dom import DomNode, DomTree, Viewport
from repro.webapp.events import EventType
from repro.webapp.semantic_tree import CallbackEffect, EffectKind, SemanticTree

#: The listener sets and navigation effect ``build_dom`` registers, one
#: immutable instance each, shared by every node and document that carries it.
_NO_LISTENERS: frozenset[EventType] = frozenset()
_CLICK = frozenset({EventType.CLICK})
_TAP = frozenset({EventType.CLICK, EventType.TOUCHSTART})
_SUBMIT = frozenset({EventType.CLICK, EventType.SUBMIT})
_MOVE = frozenset({EventType.SCROLL, EventType.TOUCHMOVE})
_NAVIGATE = CallbackEffect(kind=EffectKind.NAVIGATE, navigates=True)

#: The 12 applications used for characterisation and predictor training.
SEEN_APPS: tuple[str, ...] = (
    "163",
    "msn",
    "slashdot",
    "youtube",
    "google",
    "amazon",
    "ebay",
    "sina",
    "espn",
    "bbc",
    "cnn",
    "twitter",
)

#: The 6 applications held out to evaluate generalisation.
UNSEEN_APPS: tuple[str, ...] = (
    "yahoo",
    "nytimes",
    "stackoverflow",
    "taobao",
    "tmall",
    "jd",
)


@dataclass(frozen=True)
class AppProfile:
    """Static description of one benchmark application.

    Parameters
    ----------
    name:
        Application name (matches the paper's x-axis labels).
    seen:
        Whether the app belongs to the training (seen) set.
    clickable_density:
        Fraction of page elements that carry tap listeners; drives both the
        clickable-region feature and how hard the next tap target is to
        predict.
    link_density:
        Fraction of visible elements that are hyperlinks.
    behaviour_entropy:
        Randomness of the user-behaviour model in [0, 1]; higher values make
        interaction sequences less predictable.
    workload_scale:
        Multiplier on the baseline per-event compute workload.
    heavy_tap_fraction:
        Fraction of tap events whose callbacks are so heavy that even the
        fastest configuration cannot meet the QoS target (Type I events).
    sections:
        Number of content sections on the page (drives DOM size).
    menus:
        Number of collapsible menus (drives Semantic-Tree effects).
    """

    name: str
    seen: bool
    clickable_density: float
    link_density: float
    behaviour_entropy: float
    workload_scale: float
    heavy_tap_fraction: float
    sections: int = 12
    menus: int = 2

    def __post_init__(self) -> None:
        for attr in ("clickable_density", "link_density", "behaviour_entropy", "heavy_tap_fraction"):
            value = getattr(self, attr)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{attr} must be in [0, 1], got {value}")
        if not 0.0 < self.workload_scale < math.inf:
            raise ValueError(f"workload_scale must be positive and finite, got {self.workload_scale}")
        if self.sections <= 0 or self.menus < 0:
            raise ValueError("sections must be positive and menus non-negative")

    # -- DOM construction ----------------------------------------------------

    def build_dom(self, rng: np.random.Generator | None = None) -> tuple[DomTree, SemanticTree]:
        """Build the app's synthetic DOM tree and Semantic Tree.

        The layout is deterministic given the profile and the RNG seed: a
        header with navigation links, ``sections`` content blocks whose
        elements are clickable/linked according to the densities, ``menus``
        collapsible menus whose toggle effects are memoised in the Semantic
        Tree, and a form with a submit button.
        """
        rng = rng or np.random.default_rng(stable_seed(self.name))
        semantic = SemanticTree()
        viewport = Viewport(width=360.0, height=640.0)

        # The document root scrolls: it carries the move listeners.
        root = DomNode(tag="body", node_id=f"{self.name}-body", y=0.0, height=0.0, width=360.0, listeners=_MOVE)
        y = 0.0

        # Header / navigation bar with links that navigate.
        header = root.append_child(
            DomNode(tag="header", node_id=f"{self.name}-header", y=y, height=60.0, width=360.0)
        )
        for i in range(4):
            link = header.append_child(
                DomNode(
                    tag="a",
                    node_id=f"{self.name}-nav-{i}",
                    y=y + 10.0,
                    height=40.0,
                    width=80.0,
                    is_link=True,
                    listeners=_CLICK,
                )
            )
            semantic.register(link.node_id, EventType.CLICK, _NAVIGATE)
        y += 70.0

        # Collapsible menus (Fig. 7): a button toggles a hidden submenu.
        for m in range(self.menus):
            button = root.append_child(
                DomNode(
                    tag="button",
                    node_id=f"{self.name}-menu-btn-{m}",
                    y=y,
                    height=44.0,
                    width=360.0,
                    listeners=_TAP,
                )
            )
            submenu = root.append_child(
                DomNode(
                    tag="div",
                    node_id=f"{self.name}-menu-{m}",
                    y=y + 44.0,
                    height=120.0,
                    width=360.0,
                    display="none",
                )
            )
            for item in range(3):
                submenu.append_child(
                    DomNode(
                        tag="a",
                        node_id=f"{self.name}-menu-{m}-item-{item}",
                        y=y + 44.0 + item * 40.0,
                        height=40.0,
                        width=360.0,
                        is_link=True,
                        listeners=_CLICK,
                    )
                )
            effect = CallbackEffect(kind=EffectKind.TOGGLE_DISPLAY, target_node_ids=(submenu.node_id,))
            semantic.register(button.node_id, EventType.CLICK, effect)
            semantic.register(button.node_id, EventType.TOUCHSTART, effect)
            y += 54.0

        # Content sections: elements are clickable / links per densities.
        for s in range(self.sections):
            section = root.append_child(
                DomNode(tag="section", node_id=f"{self.name}-sec-{s}", y=y, height=0.0, width=360.0)
            )
            section_height = 0.0
            for e in range(5):
                height = float(rng.integers(30, 90))
                is_clickable = bool(rng.random() < self.clickable_density)
                is_link = bool(rng.random() < self.link_density)
                node = section.append_child(
                    DomNode(
                        tag="div",
                        node_id=f"{self.name}-sec-{s}-el-{e}",
                        y=y + section_height,
                        height=height,
                        width=float(rng.integers(120, 361)),
                        is_link=is_link,
                        listeners=_TAP if is_clickable else _CLICK if is_link else _NO_LISTENERS,
                    )
                )
                if is_link:
                    semantic.register(node.node_id, EventType.CLICK, _NAVIGATE)
                section_height += height
            section.height = section_height
            y += section_height + 10.0

        # A form with a submit button near the bottom of the page.
        form = root.append_child(
            DomNode(tag="form", node_id=f"{self.name}-form", y=y, height=100.0, width=360.0)
        )
        form.append_child(
            DomNode(
                tag="input",
                node_id=f"{self.name}-form-field",
                y=y,
                height=44.0,
                width=300.0,
                listeners=_CLICK,
            )
        )
        submit = form.append_child(
            DomNode(
                tag="button",
                node_id=f"{self.name}-form-submit",
                y=y + 50.0,
                height=44.0,
                width=140.0,
                listeners=_SUBMIT,
            )
        )
        semantic.register(submit.node_id, EventType.SUBMIT, _NAVIGATE)
        y += 110.0

        root.height = y
        semantic.register(root.node_id, EventType.SCROLL, CallbackEffect(kind=EffectKind.SCROLL_BY, scroll_delta_y=320.0))
        semantic.register(root.node_id, EventType.TOUCHMOVE, CallbackEffect(kind=EffectKind.SCROLL_BY, scroll_delta_y=160.0))

        tree = DomTree(root=root, viewport=viewport, page_height=y)
        return tree, semantic


def _default_profiles() -> dict[str, AppProfile]:
    """Hand-tuned profiles for the 18 benchmark applications."""
    spec: dict[str, tuple[bool, float, float, float, float, float, int, int]] = {
        # name: (seen, clickable, link, entropy, workload, heavy_tap, sections, menus)
        "163": (True, 0.40, 0.45, 0.07, 1.10, 0.10, 14, 2),
        "msn": (True, 0.35, 0.40, 0.07, 1.05, 0.09, 13, 2),
        "slashdot": (True, 0.18, 0.30, 0.03, 0.90, 0.06, 10, 1),
        "youtube": (True, 0.45, 0.35, 0.09, 1.25, 0.12, 12, 2),
        "google": (True, 0.55, 0.50, 0.16, 0.95, 0.08, 8, 1),
        "amazon": (True, 0.60, 0.48, 0.13, 1.20, 0.12, 16, 3),
        "ebay": (True, 0.52, 0.42, 0.10, 1.15, 0.11, 15, 3),
        "sina": (True, 0.38, 0.44, 0.06, 0.70, 0.05, 14, 2),
        "espn": (True, 0.36, 0.40, 0.08, 1.10, 0.10, 12, 2),
        "bbc": (True, 0.30, 0.38, 0.06, 1.05, 0.09, 12, 2),
        "cnn": (True, 0.34, 0.42, 0.08, 1.30, 0.14, 14, 2),
        "twitter": (True, 0.42, 0.36, 0.09, 1.00, 0.09, 12, 2),
        "yahoo": (False, 0.38, 0.42, 0.09, 1.08, 0.10, 13, 2),
        "nytimes": (False, 0.28, 0.40, 0.08, 1.20, 0.12, 14, 2),
        "stackoverflow": (False, 0.32, 0.46, 0.06, 0.95, 0.07, 12, 1),
        "taobao": (False, 0.58, 0.46, 0.12, 1.22, 0.12, 16, 3),
        "tmall": (False, 0.56, 0.44, 0.11, 1.18, 0.11, 15, 3),
        "jd": (False, 0.54, 0.43, 0.10, 1.15, 0.11, 15, 3),
    }
    profiles = {}
    for name, (seen, clickable, link, entropy, workload, heavy, sections, menus) in spec.items():
        profiles[name] = AppProfile(
            name=name,
            seen=seen,
            clickable_density=clickable,
            link_density=link,
            behaviour_entropy=entropy,
            workload_scale=workload,
            heavy_tap_fraction=heavy,
            sections=sections,
            menus=menus,
        )
    return profiles


@dataclass
class AppCatalog:
    """Registry of benchmark application profiles."""

    profiles: dict[str, AppProfile] = field(default_factory=_default_profiles)

    def get(self, name: str) -> AppProfile:
        try:
            return self.profiles[name]
        except KeyError:
            raise KeyError(f"unknown application {name!r}") from None

    def seen(self) -> list[AppProfile]:
        return [p for p in self.profiles.values() if p.seen]

    def __len__(self) -> int:
        return len(self.profiles)
