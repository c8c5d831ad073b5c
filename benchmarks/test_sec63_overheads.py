"""Sec. 6.3 — runtime overheads of PES.

The paper reports three overheads, all negligible against event latencies:
evaluating the logistic prediction model (~2 µs per prediction on their
hardware), solving the constrained optimisation (~10 ms, amortised over the
scheduling window), and the hardware switching costs (100 µs DVFS, 20 µs
migration) which are part of the simulation model rather than measured
here.  These are true micro-benchmarks: pytest-benchmark measures the
prediction and solver paths directly.  Under ``--benchmark-disable`` each
path runs once, unmeasured: the timing asserts and the write of
``results/sec63_overheads.txt`` are skipped, and the result asserts still run.
"""

from __future__ import annotations

from benchmarks.conftest import write_result
from repro.core.optimizer.optimizer import ArrivalEstimator, GlobalOptimizer, WorkloadEstimator
from repro.core.predictor.dom_analysis import DomAnalyzer
from repro.core.predictor.sequence_learner import PredictedEvent
from repro.traces.session_state import SessionState
from repro.webapp.events import EventType

_RESULTS: dict[str, float] = {}


def mean_s(benchmark) -> float | None:
    """Mean seconds per call, or ``None`` when benchmarking is disabled."""
    return None if benchmark.stats is None else benchmark.stats.stats.mean


def test_sec63_prediction_inference_overhead(benchmark, learner, catalog):
    """One single-step model evaluation (features already extracted)."""
    state = SessionState.fresh(catalog.get("cnn"))
    features = learner.extractor.extract(state)

    def infer():
        return learner.model.predict_proba(features)

    benchmark(infer)
    mean = mean_s(benchmark)
    if mean is not None:
        _RESULTS["prediction_us"] = mean * 1e6
        assert mean < 1e-3  # well under a millisecond


def test_sec63_full_prediction_step_overhead(benchmark, learner, catalog):
    """Feature extraction + DOM analysis + model evaluation for one step."""
    state = SessionState.fresh(catalog.get("cnn"))
    analyzer = DomAnalyzer(encoder=learner.encoder)

    def predict():
        return learner.predict_next(state, mask=analyzer.lnes_mask(state))

    benchmark(predict)
    mean = mean_s(benchmark)
    if mean is not None:
        _RESULTS["prediction_step_ms"] = mean * 1e3
        assert mean < 0.05  # < 50 ms


def test_sec63_ilp_solver_overhead(benchmark, setup, catalog):
    """Solving a typical speculative window (five predicted events)."""
    optimizer = GlobalOptimizer(
        system=setup.system,
        power_table=setup.power_table,
        workload_estimator=WorkloadEstimator(profile=catalog.get("cnn")),
        arrival_estimator=ArrivalEstimator(),
    )
    predictions = [
        PredictedEvent(event_type=t, confidence=0.9, cumulative_confidence=0.9, node_id="n")
        for t in (EventType.SCROLL, EventType.CLICK, EventType.SCROLL, EventType.CLICK, EventType.SCROLL)
    ]
    specs = optimizer.build_specs(0.0, predictions)

    def solve():
        return optimizer.solve(specs, 0.0)

    schedule = benchmark(solve)
    assert schedule.feasible
    mean = mean_s(benchmark)
    if mean is None:
        return
    _RESULTS["ilp_solve_ms"] = mean * 1e3
    assert mean < 0.25  # well under the paper's 10 ms budget scale

    write_result(
        "sec63_overheads.txt",
        "\n".join(
            [
                f"model inference:            {_RESULTS.get('prediction_us', float('nan')):.1f} us   (paper: ~2 us)",
                f"full prediction step:       {_RESULTS.get('prediction_step_ms', float('nan')):.3f} ms",
                f"optimizer solve (5 events): {_RESULTS.get('ilp_solve_ms', float('nan')):.3f} ms  (paper: ~10 ms)",
                "DVFS switch / core migration: 0.1 ms / 0.02 ms (modelled, from the paper)",
            ]
        ),
    )
