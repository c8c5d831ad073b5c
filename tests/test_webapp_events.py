"""Unit tests for the event taxonomy and QoS targets."""

import pytest

from repro.webapp.events import (
    EventType,
    Interaction,
    POINTER_EVENT_TYPES,
    QOS_TARGETS_MS,
    interaction_of,
    qos_target_ms,
)


class TestInteractionMapping:
    def test_every_event_type_has_an_interaction(self):
        for event_type in EventType:
            assert isinstance(interaction_of(event_type), Interaction)

    def test_tap_manifestations(self):
        for event_type in (EventType.CLICK, EventType.TOUCHSTART, EventType.SUBMIT):
            assert interaction_of(event_type) is Interaction.TAP

    def test_move_manifestations(self):
        for event_type in (EventType.SCROLL, EventType.TOUCHMOVE):
            assert interaction_of(event_type) is Interaction.MOVE

    def test_load_maps_to_load(self):
        assert interaction_of(EventType.LOAD) is Interaction.LOAD


class TestQosTargets:
    def test_paper_qos_targets(self):
        assert QOS_TARGETS_MS[Interaction.LOAD] == pytest.approx(3000.0)
        assert QOS_TARGETS_MS[Interaction.TAP] == pytest.approx(300.0)
        assert QOS_TARGETS_MS[Interaction.MOVE] == pytest.approx(33.0)

    def test_qos_target_per_event_type(self):
        assert qos_target_ms(EventType.LOAD) == pytest.approx(3000.0)
        assert qos_target_ms(EventType.CLICK) == pytest.approx(300.0)
        assert qos_target_ms(EventType.SCROLL) == pytest.approx(33.0)

    def test_same_interaction_same_target(self):
        assert qos_target_ms(EventType.CLICK) == qos_target_ms(EventType.TOUCHSTART)
        assert qos_target_ms(EventType.SCROLL) == qos_target_ms(EventType.TOUCHMOVE)


class TestPointerEvents:
    def test_load_is_not_a_pointer_event(self):
        assert EventType.LOAD not in POINTER_EVENT_TYPES

    def test_all_other_events_are_pointer_events(self):
        assert set(POINTER_EVENT_TYPES) == set(EventType) - {EventType.LOAD}
