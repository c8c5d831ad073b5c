"""Unit tests for the PFB and the control unit."""

import pytest

from repro.core.control.control_unit import ControlUnit, MatchResult
from repro.core.control.pfb import PendingFrameBuffer, SpeculativeFrame
from repro.core.predictor.sequence_learner import PredictedEvent
from repro.hardware.acmp import AcmpConfig
from repro.webapp.events import EventType


def frame(sequence: int, event_type: EventType = EventType.CLICK, ready: float = 100.0) -> SpeculativeFrame:
    return SpeculativeFrame(
        sequence=sequence,
        event_type=event_type,
        node_id="n",
        config=AcmpConfig("A15", 1000),
        started_ms=ready - 50.0,
        ready_ms=ready,
        cpu_time_ms=50.0,
        energy_mj=60.0,
    )


def predicted(event_type: EventType) -> PredictedEvent:
    return PredictedEvent(event_type=event_type, confidence=0.9, cumulative_confidence=0.9, node_id="n")


class TestPendingFrameBuffer:
    def test_fifo_commit(self):
        pfb = PendingFrameBuffer()
        pfb.push(frame(0), 100.0)
        pfb.push(frame(1), 150.0)
        committed = pfb.commit_head(200.0)
        assert committed.sequence == 0
        assert len(pfb) == 1
        assert pfb.committed == 1

    def test_sequence_must_increase(self):
        pfb = PendingFrameBuffer()
        pfb.push(frame(3), 100.0)
        with pytest.raises(ValueError):
            pfb.push(frame(2), 150.0)

    def test_commit_from_empty_raises(self):
        with pytest.raises(LookupError):
            PendingFrameBuffer().commit_head(0.0)

    def test_squash_drops_everything(self):
        pfb = PendingFrameBuffer()
        pfb.push(frame(0), 100.0)
        pfb.push(frame(1), 150.0)
        dropped = pfb.squash_all(200.0)
        assert len(dropped) == 2
        assert pfb.is_empty
        assert pfb.squashed == 2

    def test_size_history_records_mutations(self):
        pfb = PendingFrameBuffer()
        pfb.push(frame(0), 100.0)
        pfb.push(frame(1), 150.0)
        pfb.commit_head(160.0)
        pfb.squash_all(170.0)
        sizes = [size for _, size in pfb.size_history]
        assert sizes == [1, 2, 1, 0]

    def test_frame_validation(self):
        with pytest.raises(ValueError):
            SpeculativeFrame(0, EventType.CLICK, "n", AcmpConfig("A15", 800), 100.0, 50.0, 10.0, 1.0)


class TestControlUnit:
    def test_match_and_commit_flow(self):
        control = ControlUnit()
        control.begin_round([predicted(EventType.SCROLL), predicted(EventType.CLICK)])
        assert control.rounds == 1
        assert control.validate(EventType.SCROLL) is MatchResult.MATCH
        control.pfb.push(frame(0, EventType.SCROLL), 10.0)
        committed = control.confirm_match(20.0)
        assert committed is not None and committed.event_type is EventType.SCROLL
        assert control.commits == 1
        assert control.pending[0].event_type is EventType.CLICK

    def test_match_without_buffered_frame(self):
        control = ControlUnit()
        control.begin_round([predicted(EventType.SCROLL)])
        assert control.confirm_match(5.0) is None
        assert control.commits == 1

    def test_mispredict_squashes_and_counts(self):
        control = ControlUnit()
        control.begin_round([predicted(EventType.SCROLL), predicted(EventType.CLICK)])
        control.pfb.push(frame(0, EventType.SCROLL), 10.0)
        assert control.validate(EventType.SUBMIT) is MatchResult.MISPREDICT
        squashed = control.handle_mispredict(15.0)
        assert len(squashed) == 1
        assert not control.has_pending
        assert control.mispredictions == 1
        assert control.consecutive_mispredictions == 1
        assert control.prediction_enabled

    def test_prediction_disabled_after_consecutive_mispredictions(self):
        control = ControlUnit(disable_after=3)
        for _ in range(4):
            control.begin_round([predicted(EventType.SCROLL)])
            control.handle_mispredict(0.0)
        assert not control.prediction_enabled

    def test_match_resets_consecutive_counter(self):
        control = ControlUnit(disable_after=3)
        for _ in range(3):
            control.begin_round([predicted(EventType.SCROLL)])
            control.handle_mispredict(0.0)
        control.begin_round([predicted(EventType.SCROLL)])
        control.confirm_match(0.0)
        assert control.consecutive_mispredictions == 0
        assert control.prediction_enabled

    def test_no_prediction_when_nothing_pending(self):
        control = ControlUnit()
        assert control.validate(EventType.CLICK) is MatchResult.NO_PREDICTION

    def test_cannot_begin_round_with_pending_predictions(self):
        control = ControlUnit()
        control.begin_round([predicted(EventType.SCROLL)])
        with pytest.raises(RuntimeError):
            control.begin_round([predicted(EventType.CLICK)])

    def test_reset(self):
        control = ControlUnit()
        control.begin_round([predicted(EventType.SCROLL)])
        control.handle_mispredict(0.0)
        control.reset()
        assert control.prediction_enabled
        assert control.mispredictions == 0
        assert not control.has_pending

