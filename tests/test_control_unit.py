"""Unit tests for the PFB and the control unit."""

import pytest

from repro.core.control.control_unit import ControlUnit, MatchResult
from repro.core.control.pfb import PendingFrameBuffer
from repro.core.optimizer.schedule import Assignment, EventSpec
from repro.core.predictor.sequence_learner import PredictedEvent
from repro.hardware.acmp import AcmpConfig
from repro.schedulers.base import ConfigOption
from repro.webapp.events import EventType


def predicted(event_type: EventType) -> PredictedEvent:
    return PredictedEvent(event_type=event_type, confidence=0.9, cumulative_confidence=0.9, node_id="n")


def planned(finish_ms: float) -> Assignment:
    option = ConfigOption(AcmpConfig("A15", 1000), latency_ms=50.0, power_w=1.2)
    spec = EventSpec(
        label="predicted", release_ms=0.0, deadline_ms=1000.0, options=(option,)
    )
    return Assignment(spec=spec, option=option, start_ms=finish_ms - 50.0, finish_ms=finish_ms)


def begin(control: ControlUnit, *event_types: EventType) -> list[Assignment]:
    """Begin a round predicting ``event_types``; return its assignments."""
    assignments = [planned(100.0 * (i + 1)) for i in range(len(event_types))]
    control.begin_round([predicted(t) for t in event_types], assignments)
    return assignments


class TestPendingFrameBuffer:
    def test_fifo_commit(self):
        pfb = PendingFrameBuffer()
        pfb.push(100.0)
        pfb.push(150.0)
        pfb.commit_head(200.0)
        assert pfb.size == 1
        assert pfb.committed == 1

    def test_commit_from_empty_raises(self):
        with pytest.raises(LookupError):
            PendingFrameBuffer().commit_head(0.0)

    def test_squash_drops_everything(self):
        pfb = PendingFrameBuffer()
        pfb.push(100.0)
        pfb.push(150.0)
        pfb.squash_all(200.0)
        assert pfb.size == 0
        assert pfb.squashed == 2

    def test_size_history_records_mutations(self):
        pfb = PendingFrameBuffer()
        pfb.push(100.0)
        pfb.push(150.0)
        pfb.commit_head(160.0)
        pfb.squash_all(170.0)
        assert pfb.size_history == [(100.0, 1), (150.0, 2), (160.0, 1), (170.0, 0)]

    def test_squashing_an_empty_buffer_still_records_a_sample(self):
        pfb = PendingFrameBuffer()
        pfb.squash_all(5.0)
        assert pfb.size_history == [(5.0, 0)]
        assert pfb.squashed == 0


class TestControlUnit:
    def test_match_and_commit_flow(self):
        control = ControlUnit()
        scroll, click = begin(control, EventType.SCROLL, EventType.CLICK)
        assert control.rounds == 1
        assert control.predictions_made == 2
        assert control.validate(EventType.SCROLL) is MatchResult.MATCH
        control.pfb.push(10.0)
        assert control.confirm_match(20.0) is scroll
        assert control.commits == 1
        assert control.pfb.size == 0
        assert control.pfb.committed == 1
        (head, head_assignment), = control.pending
        assert head.event_type is EventType.CLICK
        assert head_assignment is click

    def test_match_without_buffered_frame(self):
        control = ControlUnit()
        (scroll,) = begin(control, EventType.SCROLL)
        assert control.confirm_match(5.0) is scroll
        assert control.commits == 1
        assert control.pfb.committed == 0
        assert control.pfb.size_history == []

    def test_confirm_without_a_round_raises(self):
        with pytest.raises(RuntimeError):
            ControlUnit().confirm_match(0.0)

    def test_mispredict_squashes_and_counts(self):
        control = ControlUnit()
        begin(control, EventType.SCROLL, EventType.CLICK)
        control.pfb.push(10.0)
        assert control.validate(EventType.SUBMIT) is MatchResult.MISPREDICT
        control.handle_mispredict(15.0)
        assert control.pfb.squashed == 1
        assert control.pfb.size == 0
        assert not control.pending
        assert control.mispredictions == 1
        assert control.consecutive_mispredictions == 1
        assert control.prediction_enabled

    def test_prediction_disabled_after_consecutive_mispredictions(self):
        control = ControlUnit(disable_after=3)
        for _ in range(4):
            begin(control, EventType.SCROLL)
            control.handle_mispredict(0.0)
        assert not control.prediction_enabled
        assert control.validate(EventType.SCROLL) is MatchResult.NO_PREDICTION

    def test_match_resets_consecutive_counter(self):
        control = ControlUnit(disable_after=3)
        for _ in range(3):
            begin(control, EventType.SCROLL)
            control.handle_mispredict(0.0)
        begin(control, EventType.SCROLL)
        control.confirm_match(0.0)
        assert control.consecutive_mispredictions == 0
        assert control.prediction_enabled

    def test_no_prediction_when_nothing_pending(self):
        control = ControlUnit()
        assert control.validate(EventType.CLICK) is MatchResult.NO_PREDICTION

    def test_empty_round_is_not_counted(self):
        control = ControlUnit()
        control.begin_round([], ())
        assert control.rounds == 0
        assert control.predictions_made == 0
        assert not control.pending

    def test_cannot_begin_round_with_pending_predictions(self):
        control = ControlUnit()
        begin(control, EventType.SCROLL)
        with pytest.raises(RuntimeError):
            begin(control, EventType.CLICK)

    def test_round_needs_one_assignment_per_prediction(self):
        control = ControlUnit()
        with pytest.raises(ValueError):
            control.begin_round([predicted(EventType.SCROLL)], [])
        assert not control.pending
        assert control.rounds == 0
        assert control.predictions_made == 0

    def test_reset(self):
        control = ControlUnit()
        begin(control, EventType.SCROLL)
        control.pfb.push(100.0)
        control.handle_mispredict(0.0)
        control.reset()
        assert control.prediction_enabled
        assert control.mispredictions == 0
        assert control.rounds == 0
        assert control.predictions_made == 0
        assert not control.pending
        assert control.pfb == PendingFrameBuffer()
