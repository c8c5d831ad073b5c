"""Unit tests for the global optimizer and its estimators."""

import pytest

from repro.core.optimizer.optimizer import ArrivalEstimator, GlobalOptimizer, WorkloadEstimator
from repro.core.predictor.sequence_learner import PredictedEvent
from repro.hardware.dvfs import DvfsModel
from repro.traces.trace import TraceEvent
from repro.webapp.events import EventType, Interaction, qos_target_ms
from repro.webapp.rendering import planning_deadline_ms


@pytest.fixture
def workload_estimator(catalog):
    return WorkloadEstimator(profile=catalog.get("cnn"))


@pytest.fixture
def optimizer(setup, workload_estimator):
    return GlobalOptimizer(
        system=setup.system,
        power_table=setup.power_table,
        workload_estimator=workload_estimator,
    )


def predicted(event_type: EventType, confidence: float = 0.9) -> PredictedEvent:
    return PredictedEvent(
        event_type=event_type,
        confidence=confidence,
        cumulative_confidence=confidence,
        node_id="n",
    )


class TestWorkloadEstimator:
    def test_falls_back_to_typical_without_observations(self, workload_estimator, catalog):
        typical = workload_estimator.estimate(EventType.CLICK)
        from repro.traces.workload import WorkloadModel

        expected = WorkloadModel(catalog.get("cnn")).typical(EventType.CLICK)
        assert typical.ndep_mcycles == pytest.approx(expected.ndep_mcycles)

    def test_running_average_tracks_observations(self, workload_estimator):
        workload_estimator.record(EventType.CLICK, DvfsModel(10.0, 100.0))
        workload_estimator.record(EventType.CLICK, DvfsModel(30.0, 300.0))
        estimate = workload_estimator.estimate(EventType.CLICK)
        assert estimate.tmem_ms == pytest.approx(20.0)
        assert estimate.ndep_mcycles == pytest.approx(200.0)

    def test_types_are_tracked_independently(self, workload_estimator):
        prior = workload_estimator.estimate(EventType.SCROLL)
        workload_estimator.record(EventType.CLICK, DvfsModel(10.0, 100.0))
        assert workload_estimator.estimate(EventType.SCROLL) == prior


class TestArrivalEstimator:
    def test_initial_gaps_by_interaction(self):
        estimator = ArrivalEstimator(conservatism=1.0)
        assert estimator.expected_gap_ms(EventType.LOAD) > estimator.expected_gap_ms(EventType.CLICK)
        assert estimator.expected_gap_ms(EventType.CLICK) > estimator.expected_gap_ms(EventType.SCROLL)

    def test_gap_learning_from_arrivals(self):
        estimator = ArrivalEstimator(conservatism=1.0)
        estimator.record_arrival(EventType.CLICK, 0.0)
        estimator.record_arrival(EventType.CLICK, 1000.0)
        estimator.record_arrival(EventType.CLICK, 2000.0)
        assert estimator.expected_gap_ms(EventType.CLICK) == pytest.approx(1000.0)

    def test_conservatism_scales_gap_down(self):
        estimator = ArrivalEstimator(conservatism=0.5)
        estimator.record_arrival(EventType.CLICK, 0.0)
        estimator.record_arrival(EventType.CLICK, 1000.0)
        assert estimator.expected_gap_ms(EventType.CLICK) == pytest.approx(500.0)

    def test_conservatism_validation(self):
        with pytest.raises(ValueError):
            ArrivalEstimator(conservatism=0.0)
        with pytest.raises(ValueError):
            ArrivalEstimator(conservatism=1.5)


class TestGlobalOptimizer:
    def test_outstanding_events_are_refused(self, optimizer):
        outstanding = TraceEvent(
            index=3,
            event_type=EventType.CLICK,
            node_id="n",
            arrival_ms=10_000.0,
            workload=DvfsModel(15.0, 200.0),
        )
        with pytest.raises(ValueError, match="outstanding"):
            optimizer.compute_schedule(10_050.0, [outstanding], [predicted(EventType.SCROLL)])

    def test_predicted_events_released_immediately(self, optimizer):
        specs = optimizer.build_specs(5_000.0, [predicted(EventType.CLICK)])
        assert specs[0].release_ms == pytest.approx(5_000.0)
        assert specs[0].deadline_ms > 5_000.0

    def test_predicted_deadlines_accumulate_gaps(self, optimizer):
        specs = optimizer.build_specs(0.0, [predicted(EventType.SCROLL), predicted(EventType.SCROLL)])
        assert specs[1].deadline_ms > specs[0].deadline_ms

    def test_deadlines_come_from_planning_deadline(self, optimizer):
        # Each deadline is the helper applied to the accumulated predicted
        # arrival plus the QoS target, bit for bit.
        optimizer.arrival_estimator.record_arrival(EventType.CLICK, 0.0)
        optimizer.arrival_estimator.record_arrival(EventType.CLICK, 733.3)
        window = [EventType.SCROLL, EventType.CLICK, EventType.LOAD, EventType.CLICK]
        now = 1_234.567
        specs = optimizer.build_specs(now, [predicted(event_type) for event_type in window])
        arrival = now
        for spec, event_type in zip(specs, window):
            arrival += optimizer.arrival_estimator.expected_gap_ms(event_type)
            expected = planning_deadline_ms(arrival + qos_target_ms(event_type), now)
            assert spec.deadline_ms == expected
            assert spec.release_ms == now

    def test_schedule_meets_deadlines_for_typical_window(self, optimizer):
        predictions = [predicted(EventType.SCROLL), predicted(EventType.CLICK), predicted(EventType.SCROLL)]
        schedule = optimizer.compute_schedule(1_000.0, [], predictions)
        assert schedule.feasible
        for assignment in schedule.assignments:
            assert assignment.meets_deadline

    def test_empty_window(self, optimizer):
        schedule = optimizer.compute_schedule(0.0, [], [])
        assert len(schedule.assignments) == 0
        assert schedule.feasible
