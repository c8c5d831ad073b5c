"""DOM analysis: the program-analysis half of the hybrid predictor.

The DOM analyser inspects the part of the DOM tree inside the current
viewport and accumulates the events registered on visible nodes — the
Likely-Next-Event-Set (LNES).  The event sequence learner then predicts the
next event *out of* the LNES, which tightens the prediction space.

To predict several events ahead, the analyser must know the DOM state
*after* each hypothetical event without evaluating its JavaScript callback.
It does so by consulting the Semantic Tree (built on the Accessibility
Tree), which memoises each callback's declarative effect; rolling a cloned
session state forward through the memoised effects yields the post-event
LNES statically (Sec. 5.2 / 5.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.predictor.features import EventLabelEncoder
from repro.traces.session_state import SessionState
from repro.webapp.dom import DomNode
from repro.webapp.events import EventType


@dataclass
class DomAnalyzer:
    """Computes the LNES and rolls session state forward through predictions."""

    encoder: EventLabelEncoder
    #: :meth:`lnes_mask` results by LNES, valid while the encoder's classes
    #: equal ``_masks_for``.
    _masks: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _masks_for: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def likely_next_events(self, state: SessionState) -> frozenset[EventType]:
        """The Likely-Next-Event-Set for the current DOM state."""
        return state.available_events()

    def lnes_mask(self, state: SessionState) -> np.ndarray:
        """Boolean class mask restricting the learner to the LNES.

        If the analysis yields an empty set (e.g. a degenerate document) the
        mask is all-true, i.e. the analysis gracefully degrades to the pure
        statistical predictor.

        A session sees a handful of distinct LNES, so the mask of each is
        built once and returned read-only.
        """
        lnes = frozenset(self.likely_next_events(state))
        if self._masks_for != self.encoder.classes:
            self._masks = {}
            self._masks_for = self.encoder.classes
        mask = self._masks.get(lnes)
        if mask is None:
            if lnes:
                mask = np.zeros(self.encoder.n_classes, dtype=bool)
                for event_type in lnes:
                    mask[self.encoder.encode(event_type)] = True
            else:
                mask = np.ones(self.encoder.n_classes, dtype=bool)
            mask.flags.writeable = False
            self._masks[lnes] = mask
        return mask

    def representative_target(self, state: SessionState, event_type: EventType) -> DomNode | None:
        """Pick the node a predicted event of ``event_type`` would land on.

        The choice only matters for rolling the DOM state forward (menu
        toggles change visibility, navigating taps lead to a load), so the
        analyser prefers targets whose Semantic-Tree effect is known, and
        among those prefers non-navigating ones — predicting a navigation is
        only justified when no in-page target exists.
        """
        root = state.dom.root
        if event_type in (EventType.SCROLL, EventType.TOUCHMOVE, EventType.LOAD):
            return root

        # One pass over the candidates (visible nodes other than the root
        # that listen for the event), in visible order: the first one with
        # a non-navigating effect wins; otherwise the first one with no
        # effect, and failing that the first candidate.
        effects = state.semantic.effects
        first = plain = None
        for node in state.visible_nodes():
            if event_type not in node.listeners or node is root:
                continue
            effect = effects.get((node.node_id, event_type))
            if effect is None:
                if plain is None:
                    plain = node
            elif not effect.navigates:
                return node
            if first is None:
                first = node
        return plain if plain is not None else first
