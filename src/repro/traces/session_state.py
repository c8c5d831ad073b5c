"""Interaction session state: DOM evolution plus the Table-1 feature window.

Both the trace generator (which synthesises user behaviour) and the PES
predictor (which observes it) need the same view of an ongoing session:

* the current DOM state, updated by applying each event's Semantic-Tree
  effect (scrolls move the viewport, menu toggles flip nodes' display,
  navigations load a fresh document), and
* a sliding window over the five most recent events, from which the
  interaction-dependent features of Table 1 are computed.

Keeping this in the traces layer lets the predictor consume exactly the
same feature definitions the behaviour model is driven by, without the
substrate depending on the core library.

Nothing that stays fixed between two events is recomputed per event:

* the window counts (distance to the last tap, navigations and moves in the
  window) are kept up to date by :meth:`SessionState.apply_event` as the
  ``maxlen`` history evicts, so reading them, and cloning a state, costs
  three ints instead of a rescan;
* :meth:`SessionState.available_events` is memoised on the state's
  :class:`~repro.webapp.dom.DomView` (a pure function of the DOM state),
  and after a navigation it is one module constant.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from repro.utils import stable_seed
from repro.webapp.apps import AppProfile
from repro.webapp.dom import DomNode, DomTree, DomView
from repro.webapp.events import EventType, Interaction, interaction_of, POINTER_EVENT_TYPES
from repro.webapp.semantic_tree import EffectKind, SemanticTree

#: Number of recent events considered by the interaction-dependent features.
FEATURE_WINDOW: int = 5

#: Names of the features, in vector order (Table 1).
FEATURE_NAMES: tuple[str, ...] = (
    "clickable_region_fraction",
    "visible_link_fraction",
    "distance_to_previous_click",
    "navigations_in_window",
    "scrolls_in_window",
)


class ObservedEvent(NamedTuple):
    """The slice of an event the feature window needs to remember."""

    event_type: EventType
    navigated: bool


def document_rng(profile: AppProfile, doc_index: int) -> np.random.Generator:
    """Deterministic RNG for the ``doc_index``-th document of an application.

    Both the trace generator and the PES predictor load a new document when
    a navigation happens.  Deriving the layout RNG from the application name
    and a document counter guarantees that the two sides observe the same
    sequence of documents, which is what a shared real page would give them.
    """
    return np.random.default_rng(stable_seed(profile.name, doc_index))


#: The only event a navigation leaves possible: the new document's load.
_AFTER_NAVIGATION: frozenset[EventType] = frozenset({EventType.LOAD})


def _rescan_window(history: deque[ObservedEvent]) -> tuple[int, int, int]:
    """The history's window counts by a full scan: the distance to the most
    recent tap (0 when the window holds none), navigations and move events."""
    tap_distance = 0
    for distance, observed in enumerate(reversed(history), start=1):
        if interaction_of(observed.event_type) is Interaction.TAP:
            tap_distance = distance
            break
    navigations = sum(1 for o in history if o.navigated)
    moves = sum(1 for o in history if interaction_of(o.event_type) is Interaction.MOVE)
    return tap_distance, navigations, moves


#: Served documents by ``(profile, doc_index)``: ``build_dom`` is a pure function
#: of the two and sessions revisit the same few documents, so each is built once.
_DOCUMENTS: dict[tuple[AppProfile, int], tuple[DomTree, SemanticTree]] = {}


def _serve_document(profile: AppProfile, doc_index: int) -> tuple[DomTree, SemanticTree]:
    """The initial state of ``profile.build_dom(document_rng(profile, doc_index))`` and its Semantic Tree.

    Served documents never change, so every session shares the nodes and the
    effects; the Semantic Tree is read-only (``register`` raises ``TypeError``).
    """
    if (profile, doc_index) not in _DOCUMENTS:
        dom, semantic = profile.build_dom(document_rng(profile, doc_index))
        _DOCUMENTS[profile, doc_index] = dom, SemanticTree(MappingProxyType(semantic.effects))
    dom, semantic = _DOCUMENTS[profile, doc_index]
    return dom.clone(), semantic


@dataclass
class SessionState:
    """Evolving DOM + recent-event window for one interaction session."""

    profile: AppProfile
    dom: DomTree
    semantic: SemanticTree
    doc_index: int = 0
    history: deque[ObservedEvent] = field(default_factory=lambda: deque(maxlen=FEATURE_WINDOW))
    last_navigated: bool = False
    #: ``dom.view()`` of the current state, fetched on first use.
    _view: DomView | None = field(default=None, init=False, repr=False, compare=False)
    #: The window counts of ``history``, kept up to date by :meth:`apply_event`:
    #: the distance to the most recent tap (0 = none in the window), the
    #: navigations and the move events.
    _tap_distance: int = field(default=0, init=False, repr=False, compare=False)
    _navigations: int = field(default=0, init=False, repr=False, compare=False)
    _moves: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._tap_distance, self._navigations, self._moves = _rescan_window(self.history)

    @classmethod
    def fresh(cls, profile: AppProfile) -> "SessionState":
        """Start a new session on the application's first document."""
        dom, semantic = _serve_document(profile, 0)
        return cls(profile=profile, dom=dom, semantic=semantic, doc_index=0)

    # -- visibility snapshot ---------------------------------------------------

    def view(self) -> DomView:
        """The visible nodes and their aggregates, looked up once per session state.

        Shared by the features, the LNES and target picking.  Only
        :meth:`apply_event` changes the DOM state, and it drops the snapshot
        when it does.  Every state of a served document shares
        :meth:`DomTree.view`'s memo, so a DOM state another session or
        roll-forward has seen is not walked again.
        """
        if self._view is None:
            self._view = self.dom.view()
        return self._view

    def visible_nodes(self) -> list[DomNode]:
        """The DOM nodes inside the viewport; callers must not mutate the list."""
        return self.view().nodes

    # -- features (Table 1) --------------------------------------------------

    def window_counts(self) -> tuple[int, int, int]:
        """The interaction-dependent features before normalisation.

        Events since the most recent tap (``FEATURE_WINDOW`` when the window
        holds none), navigations and move events in the window.  Kept up to
        date by :meth:`apply_event`, not rescanned.
        """
        return self._tap_distance or FEATURE_WINDOW, self._navigations, self._moves

    def feature_values(self) -> tuple[float, float, float, float, float]:
        """The five features, each normalised to [0, 1], as plain floats."""
        view = self.view()
        distance_to_click, navigations, scrolls = self.window_counts()
        return (
            view.clickable_fraction,
            view.link_fraction,
            distance_to_click / FEATURE_WINDOW,
            navigations / FEATURE_WINDOW,
            scrolls / FEATURE_WINDOW,
        )

    def features(self) -> np.ndarray:
        """The five-element feature vector of :meth:`feature_values`."""
        return np.array(self.feature_values(), dtype=float)

    # -- DOM-derived candidate events (LNES ingredient) ------------------------

    def available_events(self) -> frozenset[EventType]:
        """Events that the current DOM state allows the user to trigger next.

        After a navigation the only possible next event is the ``load`` of
        the new document; otherwise the candidates are the pointer events
        registered on visible nodes (plus scrolling, which the document root
        always supports).
        """
        if self.last_navigated:
            return _AFTER_NAVIGATION
        view = self.view()
        events = view.memo.get("available_events")
        if events is None:
            events = view.memo["available_events"] = frozenset(
                e for e in view.listeners if e in POINTER_EVENT_TYPES
            )
        return events

    # -- state evolution -------------------------------------------------------

    def apply_event(self, event_type: EventType, node_id: str, navigates: bool | None = None) -> bool:
        """Apply one event to the session state.

        Returns whether the event navigated.  When ``navigates`` is given it
        overrides the Semantic-Tree effect (used when replaying recorded
        traces whose ground-truth effect is stored on the event).
        """
        effect = self.semantic.effect_of(node_id, event_type)
        did_navigate = effect.navigates if navigates is None else navigates

        if event_type is EventType.LOAD:
            # The load event of the new document replaces the DOM.
            self.doc_index += 1
            self.dom, self.semantic = _serve_document(self.profile, self.doc_index)
            self._view = None
            self.last_navigated = False
        elif did_navigate:
            # A navigating tap tears down the document; only the subsequent
            # load event produces the new one.
            self.last_navigated = True
        else:
            # An effect of kind NONE leaves the DOM state as it was, so the
            # view stays valid and no memo key is built.
            if effect.kind is not EffectKind.NONE:
                effect.apply(self.dom)
                self._view = None
            self.last_navigated = False

        history = self.history
        if len(history) == history.maxlen:
            evicted = history[0]
            self._navigations -= evicted.navigated
            self._moves -= interaction_of(evicted.event_type) is Interaction.MOVE
        history.append(ObservedEvent(event_type, did_navigate))
        interaction = interaction_of(event_type)
        if interaction is Interaction.TAP:
            self._tap_distance = 1
        elif self._tap_distance:
            # The tap moves one further back, and leaves with the oldest event.
            self._tap_distance = self._tap_distance + 1 if self._tap_distance < len(history) else 0
        self._navigations += did_navigate
        self._moves += interaction is Interaction.MOVE
        return did_navigate

    def clone(self) -> "SessionState":
        """Structured copy used for hypothetical roll-forward during prediction.

        Hand-rolled instead of ``copy.deepcopy`` (which was the single
        largest predictor-side cost): the immutable pieces — the frozen
        :class:`AppProfile`, the read-only Semantic Tree, and the
        ``ObservedEvent`` tuples of the history — are shared, and so is the view
        snapshot, since the clone starts in the same DOM state, and the
        window counts are copied, not rescanned.  The DOM state is a
        :meth:`DomTree.clone` (the document, a viewport and a flipped set,
        each immutable), so no event on either side reaches the other; only
        the history window gets a fresh container.
        """
        twin = SessionState.__new__(SessionState)
        twin.__dict__.update(self.__dict__)
        twin.dom = self.dom.clone()
        twin.history = deque(self.history, maxlen=FEATURE_WINDOW)
        return twin
