"""DOM event taxonomy, user interactions, and QoS targets.

The paper studies three primitive user interactions — *load*, *tap*, and
*move* — with QoS targets of 3 s, 300 ms, and 33 ms respectively, and notes
that different DOM event types manifest the same interaction (e.g. both
``click`` and ``touchstart`` are "tap").
"""

from __future__ import annotations

import enum
from typing import Mapping


class Interaction(enum.Enum):
    """Primitive user interaction class with an associated QoS target."""

    LOAD = "load"
    TAP = "tap"
    MOVE = "move"

    # Members are singletons that compare by identity, so the identity hash
    # is a value hash; ``Enum.__hash__`` is a Python-level call, and these
    # enums are dictionary and set keys on every generated and replayed event.
    __hash__ = object.__hash__


class EventType(enum.Enum):
    """DOM-level event types observed in interaction traces."""

    LOAD = "load"
    CLICK = "click"
    TOUCHSTART = "touchstart"
    SUBMIT = "submit"
    TOUCHMOVE = "touchmove"
    SCROLL = "scroll"

    # See Interaction.
    __hash__ = object.__hash__


_EVENT_TO_INTERACTION: Mapping[EventType, Interaction] = {
    EventType.LOAD: Interaction.LOAD,
    EventType.CLICK: Interaction.TAP,
    EventType.TOUCHSTART: Interaction.TAP,
    EventType.SUBMIT: Interaction.TAP,
    EventType.TOUCHMOVE: Interaction.MOVE,
    EventType.SCROLL: Interaction.MOVE,
}

#: QoS targets (deadlines) per interaction, in milliseconds [Zhu et al.].
QOS_TARGETS_MS: Mapping[Interaction, float] = {
    Interaction.LOAD: 3000.0,
    Interaction.TAP: 300.0,
    Interaction.MOVE: 33.0,
}


def interaction_of(event_type: EventType) -> Interaction:
    """Map a DOM event type to its primitive interaction class."""
    return _EVENT_TO_INTERACTION[event_type]


#: :data:`QOS_TARGETS_MS` by event type.
_QOS_BY_EVENT: Mapping[EventType, float] = {
    event_type: QOS_TARGETS_MS[interaction] for event_type, interaction in _EVENT_TO_INTERACTION.items()
}


def qos_target_ms(event_type: EventType) -> float:
    """QoS target (deadline) for a DOM event type, in milliseconds."""
    return _QOS_BY_EVENT[event_type]


#: Event types a user can trigger through pointer input (i.e. excluding the
#: navigation-driven ``load``); used by the DOM analysis to build the
#: Likely-Next-Event-Set.
POINTER_EVENT_TYPES: tuple[EventType, ...] = (
    EventType.CLICK,
    EventType.TOUCHSTART,
    EventType.SUBMIT,
    EventType.TOUCHMOVE,
    EventType.SCROLL,
)
