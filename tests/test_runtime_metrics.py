"""Unit tests for outcome/session metrics and aggregation."""

import pytest

from repro.runtime.metrics import (
    EventOutcome,
    SessionResult,
    StreamingAggregator,
    StreamingSweepAggregator,
    ThermalSessionStats,
    _session_fold,
)
from repro.webapp.events import EventType

from pool_payloads import aggregate_results


def outcome(index: int, latency: float, qos: float, energy: float = 50.0, arrival: float = 0.0) -> EventOutcome:
    return EventOutcome(
        index=index,
        event_type=EventType.CLICK,
        arrival_ms=arrival,
        start_ms=arrival,
        finish_ms=arrival + latency,
        display_ms=arrival + latency,
        qos_target_ms=qos,
        active_energy_mj=energy,
        config_label="<A15, 1000 MHz>",
    )


class TestEventOutcome:
    def test_latency_and_violation(self):
        ok = outcome(0, latency=100.0, qos=300.0)
        assert ok.latency_ms == pytest.approx(100.0)
        assert not ok.violated
        late = outcome(1, latency=400.0, qos=300.0)
        assert late.violated


class TestSessionResult:
    def make_result(self) -> SessionResult:
        return SessionResult(
            app_name="cnn",
            scheduler_name="EBS",
            outcomes=[outcome(0, 100.0, 300.0), outcome(1, 400.0, 300.0), outcome(2, 30.0, 33.0)],
            idle_energy_mj=500.0,
            wasted_energy_mj=25.0,
            wasted_time_ms=40.0,
            mispredictions=2,
            commits=8,
            predictions_made=10,
            prediction_rounds=4,
            duration_ms=10_000.0,
        )

    def test_energy_composition(self):
        result = self.make_result()
        assert result.active_energy_mj == pytest.approx(150.0)
        assert result.total_energy_mj == pytest.approx(150.0 + 25.0 + 500.0)

    def test_qos_violation_rate(self):
        result = self.make_result()
        assert result.violations == 1
        assert result.qos_violation_rate == pytest.approx(1 / 3)

    def test_prediction_statistics(self):
        result = self.make_result()
        assert result.prediction_accuracy == pytest.approx(0.8)

    def test_empty_session(self):
        empty = SessionResult(app_name="cnn", scheduler_name="EBS")
        assert empty.qos_violation_rate == 0.0
        assert empty.mean_latency_ms == 0.0
        assert empty.prediction_accuracy == 0.0


class TestThermalSessionStats:
    def test_from_dict_coerces_integral_floats(self):
        stats = ThermalSessionStats(
            peak_temperature_c=71.5,
            throttled_ms=1.0,
            duration_ms=5.0,
            throttled_events=1,
            unthrottled_events=2,
            throttled_latency_ms=40.0,
            unthrottled_latency_ms=30.0,
        )
        payload = {**stats.to_dict(), "duration_ms": 5}
        loaded = ThermalSessionStats.from_dict(payload)
        assert type(loaded.duration_ms) is float
        assert loaded == stats
        assert loaded.to_dict() == stats.to_dict()
        assert repr(loaded.to_dict()) == repr(stats.to_dict())


class TestAggregation:
    def test_aggregate_combines_sessions(self):
        a = SessionResult("cnn", "EBS", [outcome(0, 100.0, 300.0)], idle_energy_mj=10.0)
        b = SessionResult("cnn", "EBS", [outcome(0, 400.0, 300.0)], idle_energy_mj=20.0)
        metrics = aggregate_results([a, b])
        assert metrics.n_sessions == 2
        assert metrics.n_events == 2
        assert metrics.qos_violation_rate == pytest.approx(0.5)
        assert metrics.total_energy_mj == pytest.approx(a.total_energy_mj + b.total_energy_mj)

    def test_aggregate_rejects_mixed_schedulers(self):
        a = SessionResult("cnn", "EBS")
        b = SessionResult("cnn", "PES")
        with pytest.raises(ValueError):
            aggregate_results([a, b])

    def test_aggregate_rejects_empty(self):
        with pytest.raises(ValueError):
            aggregate_results([])


class TestStreamingAggregation:
    def sessions(self) -> list[SessionResult]:
        return [
            SessionResult(
                "cnn",
                "EBS",
                [outcome(0, 100.0 + i, 300.0), outcome(1, 400.0 - i, 300.0)],
                idle_energy_mj=10.0 * (i + 1),
                wasted_energy_mj=1.5 * i,
                wasted_time_ms=2.0 * i,
                mispredictions=i,
                commits=2 * i,
            )
            for i in range(5)
        ]

    def test_incremental_fold_is_exact(self):
        """Folding one session at a time gives the exact floats of the batch fold."""
        results = self.sessions()
        aggregator = StreamingAggregator()
        for result in results:
            aggregator.add(result)
        assert aggregator.finalize() == aggregate_results(results)

    def test_merge_combines_partial_folds(self):
        results = self.sessions()
        left, right = StreamingAggregator(), StreamingAggregator()
        for result in results[:2]:
            left.add(result)
        for result in results[2:]:
            right.add(result)
        left.merge(right)
        merged = left.finalize()
        full = aggregate_results(results)
        assert merged.n_sessions == full.n_sessions
        assert merged.n_events == full.n_events
        assert merged.total_energy_mj == pytest.approx(full.total_energy_mj)
        assert merged.qos_violation_rate == pytest.approx(full.qos_violation_rate)

    def test_rejects_mixed_schedulers(self):
        aggregator = StreamingAggregator()
        aggregator.add(SessionResult("cnn", "EBS"))
        with pytest.raises(ValueError):
            aggregator.add(SessionResult("cnn", "PES"))

    def test_merge_rejects_mixed_schedulers(self):
        a, b = StreamingAggregator(), StreamingAggregator()
        a.add(SessionResult("cnn", "EBS"))
        b.add(SessionResult("cnn", "PES"))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_empty_finalize_rejected(self):
        with pytest.raises(ValueError):
            StreamingAggregator().finalize()

    def test_sweep_aggregator_groups_per_app(self):
        sweep = StreamingSweepAggregator()
        cnn = SessionResult("cnn", "EBS", [outcome(0, 100.0, 300.0)])
        bbc = SessionResult("bbc", "EBS", [outcome(0, 400.0, 300.0)])
        for result in (cnn, bbc, cnn):
            sweep.add(_session_fold(result), result.app_name)
        aggregates = sweep.finalize()
        assert aggregates.overall == aggregate_results([cnn, bbc, cnn])
        assert aggregates.thermal is None and aggregates.faults is None
        per_app = aggregates.per_app
        assert list(per_app) == ["cnn", "bbc"], "apps keep their first-fold order"
        assert per_app["cnn"] == aggregate_results([cnn, cnn])
        assert per_app["bbc"] == aggregate_results([bbc])

    def test_sweep_aggregator_builds_one_aggregator_per_new_app(self, monkeypatch, setup, catalog, generator):
        # A one-app compare builds one aggregator per session fold plus one
        # for the app's cell, not a throwaway default per merged session.
        from repro.runtime import metrics
        from repro.runtime.parallel import ParallelEvaluator

        built = []

        class Counted(StreamingAggregator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(metrics, "StreamingAggregator", Counted)
        traces = [generator.generate("google", seed=seed) for seed in (11, 12, 13)]
        aggregates = ParallelEvaluator(setup=setup, catalog=catalog, jobs=1).compare(traces, ["EBS"])
        assert list(aggregates["EBS"].per_app) == ["google"]
        assert len(built) == len(traces) + 1
