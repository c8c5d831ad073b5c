"""Merge ≡ sequential-fold bit-identity for the streaming aggregators.

These are the fail-before tests for the shard-merge bugfix: with plain
float ``+=`` accumulators, merging per-shard subtotals is *not* associative
— ``(a + b) + (c + d)`` can round differently from ``((a + b) + c) + d`` —
so population aggregates would depend on where the shard boundaries fell
and ``--jobs N`` artefacts could drift from ``--jobs 1``.  The exact-sum
accumulators (:class:`repro.runtime.metrics.ExactSum`) make the totals the
*correctly rounded* value of the full-precision sum, so any shard split
merges to the bit-identical result of one sequential fold.

The deterministic tests below use adversarial magnitudes (1e16 vs 1.0)
that provably drift under plain-float shard merging; the hypothesis
property tests sweep random values *and* random shard boundaries.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.runtime.metrics import (
    EventOutcome,
    ExactSum,
    FaultSessionStats,
    SessionResult,
    StreamingAggregator,
    ThermalSessionStats,
)
from repro.webapp.events import EventType

from pool_payloads import aggregate_results


def outcome(index: int, latency: float, qos: float = 1e30, energy: float = 1.0) -> EventOutcome:
    return EventOutcome(
        index=index,
        event_type=EventType.CLICK,
        arrival_ms=0.0,
        start_ms=0.0,
        finish_ms=latency,
        display_ms=latency,
        qos_target_ms=qos,
        active_energy_mj=energy,
        config_label="<A15, 1000 MHz>",
    )


def session(
    app: str,
    latency: float,
    energy: float,
    *,
    thermal: ThermalSessionStats | None = None,
    faults: FaultSessionStats | None = None,
    predictions: int = 5,
    rounds: int = 2,
) -> SessionResult:
    return SessionResult(
        app_name=app,
        scheduler_name="EBS",
        outcomes=[outcome(0, latency, energy=energy)],
        idle_energy_mj=energy / 3.0,
        wasted_energy_mj=energy / 7.0,
        wasted_time_ms=latency / 11.0,
        mispredictions=1,
        commits=2,
        predictions_made=predictions,
        prediction_rounds=rounds,
        duration_ms=latency,
        thermal=thermal,
        faults=faults,
    )


def thermal_stats(scale: float) -> ThermalSessionStats:
    return ThermalSessionStats(
        peak_temperature_c=60.0 + scale % 40.0,
        throttled_ms=scale,
        duration_ms=scale * 3.0 + 1.0,
        throttled_events=3,
        unthrottled_events=5,
        throttled_latency_ms=scale / 9.0,
        unthrottled_latency_ms=scale / 13.0,
    )


def fault_stats(energy: float) -> FaultSessionStats:
    return FaultSessionStats(
        predictor_injected=4,
        predictor_recovered=2,
        dvfs_injected=1,
        sensor_injected=2,
        sensor_recovered=1,
        events_dropped=1,
        battery_injected=3,
        battery_recovered=2,
        fault_energy_mj=energy,
    )


# Magnitudes chosen so a plain-float shard merge provably drifts:
# folding 1e16 + 1 + 1 + ... sequentially loses every 1.0, while a shard
# holding only the 1.0s keeps them and re-injects them at merge time.
ADVERSARIAL = [1e16, 1.0, 1.0, 1.0, -1e16, 0.1, 0.2, 0.3, 1e-8, 7.5]


def fold(results: list[SessionResult]) -> StreamingAggregator:
    agg = StreamingAggregator()
    for result in results:
        agg.add(result)
    return agg


def fold_shards(results: list[SessionResult], bounds: list[int]) -> StreamingAggregator:
    """Fold each shard independently, then merge the shards in order."""
    merged = StreamingAggregator()
    for start, end in zip([0, *bounds], [*bounds, len(results)]):
        merged.merge(fold(results[start:end]))
    return merged


def assert_bit_identical(a: StreamingAggregator, b: StreamingAggregator) -> None:
    for name in (
        "total_latency_ms",
        "total_energy_mj",
        "wasted_energy_mj",
        "wasted_time_ms",
        "thermal_peak_c",
        "thermal_throttled_ms",
        "thermal_duration_ms",
        "thermal_throttled_latency_ms",
        "thermal_unthrottled_latency_ms",
        "fault_energy_mj",
    ):
        left, right = getattr(a, name), getattr(b, name)
        assert math.copysign(1.0, left) == math.copysign(1.0, right), name
        assert left == right, f"{name}: {left!r} != {right!r}"
    assert (a.predictions_made, a.prediction_rounds) == (b.predictions_made, b.prediction_rounds)
    assert a.finalize() == b.finalize()
    assert a.finalize_thermal() == b.finalize_thermal()
    assert a.finalize_faults() == b.finalize_faults()


class TestExactSum:
    def test_value_is_correctly_rounded(self):
        acc = ExactSum()
        for x in ADVERSARIAL:
            acc.add(x)
        assert acc.value == math.fsum(ADVERSARIAL)

    def test_merge_is_order_and_split_independent(self):
        whole = ExactSum(ADVERSARIAL)
        for split in range(len(ADVERSARIAL) + 1):
            left = ExactSum(ADVERSARIAL[:split])
            right = ExactSum(ADVERSARIAL[split:])
            left.merge(right)
            assert left.value == whole.value
            backwards = ExactSum(ADVERSARIAL[split:])
            backwards.merge(ExactSum(ADVERSARIAL[:split]))
            assert backwards.value == whole.value

    def test_negative_zero_is_normalised(self):
        acc = ExactSum([-0.0])
        assert math.copysign(1.0, acc.value) == 1.0
        acc = ExactSum([-1.0, 1.0])
        assert math.copysign(1.0, acc.value) == 1.0

    def test_equality_by_value(self):
        assert ExactSum([1e16, 1.0, -1e16]) == ExactSum([1.0])
        assert ExactSum([2.0]) == 2.0
        assert ExactSum([2.0]) != 3.0


class TestMergeEqualsFoldDeterministic:
    """Fail-before: plain-float accumulators drift on these exact inputs."""

    def results(self) -> list[SessionResult]:
        return [
            session(
                "cnn" if i % 2 == 0 else "ebay",
                latency=x if x > 0 else 1.0,
                energy=x,
                thermal=thermal_stats(abs(x) + i),
                faults=fault_stats(x),
            )
            for i, x in enumerate(ADVERSARIAL)
        ]

    def test_thermal_and_fault_accumulators_merge_bit_identically(self):
        results = self.results()
        sequential = fold(results)
        for bounds in ([1], [3], [5], [9], [1, 2], [2, 5, 7], [4, 4]):
            assert_bit_identical(fold_shards(results, bounds), sequential)

    def test_merge_matches_aggregate_results(self):
        results = self.results()
        merged = fold_shards(results, [4])
        assert merged.finalize() == aggregate_results(results)


finite = st.floats(
    min_value=-1e18, max_value=1e18, allow_nan=False, allow_infinity=False
)


@st.composite
def results_and_split(draw):
    values = draw(st.lists(finite, min_size=1, max_size=24))
    results = [
        session(
            draw(st.sampled_from(["cnn", "ebay", "sheets"])),
            latency=abs(x) + 1.0,
            energy=x,
            thermal=thermal_stats(abs(x)) if draw(st.booleans()) else None,
            faults=fault_stats(x) if draw(st.booleans()) else None,
            predictions=draw(st.integers(0, 60)),
            rounds=draw(st.integers(0, 12)),
        )
        for x in values
    ]
    bounds = sorted(
        draw(st.lists(st.integers(0, len(results)), min_size=0, max_size=5))
    )
    return results, bounds


class TestMergeEqualsFoldProperty:
    @settings(max_examples=60, deadline=None)
    @given(results_and_split())
    def test_random_shard_splits_merge_bit_identically(self, case):
        results, bounds = case
        sequential = fold(results)
        assert_bit_identical(fold_shards(results, bounds), sequential)
        assert sequential.predictions_made == sum(r.predictions_made for r in results)
        assert sequential.prediction_rounds == sum(r.prediction_rounds for r in results)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(finite, min_size=0, max_size=30), st.integers(0, 30))
    def test_exact_sum_split_invariance(self, values, split_at):
        split_at = min(split_at, len(values))
        left = ExactSum(values[:split_at])
        left.merge(ExactSum(values[split_at:]))
        whole = ExactSum(values)
        assert left.value == whole.value
        assert math.copysign(1.0, left.value) == math.copysign(1.0, whole.value)
