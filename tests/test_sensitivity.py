"""The Fig. 14 confidence sweep (`repro.analysis.sensitivity`).

The sweep is one ``evaluate_matrix`` run.  Its rows must equal the sweep
replayed session by session (``Simulator.run_scheme`` for EBS,
``Simulator.run_pes`` per threshold) and folded with the reference
``aggregate_results``, for any worker count.
"""

from __future__ import annotations

from dataclasses import astuple

import pytest

from repro.analysis.sensitivity import ConfidenceSweepResult, sweep_confidence_threshold
from repro.core.pes import PesConfig
from repro.runtime.parallel import ParallelEvaluator
from repro.runtime.simulator import Simulator

from pool_payloads import aggregate_results

THRESHOLDS = (0.5, 1.0)


@pytest.fixture(scope="module")
def traces(generator):
    return generator.generate_many(["cnn", "ebay"], 1, base_seed=71_000)


def reference_sweep(simulator, learner, traces, thresholds) -> list[ConfidenceSweepResult]:
    """The sweep as separate in-process replays, each app's sessions folded as a list."""
    apps = sorted({t.app_name for t in traces})
    ebs_by_app = {
        app: aggregate_results(
            simulator.run_scheme([t for t in traces if t.app_name == app], "EBS")
        )
        for app in apps
    }
    rows = []
    for threshold in thresholds:
        config = PesConfig(confidence_threshold=threshold)
        for app in apps:
            sessions = [
                simulator.run_pes(t, learner, config) for t in traces if t.app_name == app
            ]
            pes, ebs = aggregate_results(sessions), ebs_by_app[app]
            rounds = sum(s.prediction_rounds for s in sessions)
            rows.append(
                ConfidenceSweepResult(
                    app_name=app,
                    confidence_threshold=threshold,
                    energy_vs_ebs=pes.total_energy_mj / ebs.total_energy_mj
                    if ebs.total_energy_mj > 0
                    else 1.0,
                    qos_violation_reduction=1.0 - pes.qos_violation_rate / ebs.qos_violation_rate
                    if ebs.qos_violation_rate > 0
                    else 0.0,
                    mean_prediction_degree=sum(s.predictions_made for s in sessions) / rounds
                    if rounds
                    else 0.0,
                )
            )
    return rows


def bits(rows: list[ConfidenceSweepResult]) -> list[tuple]:
    """Each row's fields, floats by ``repr`` so that ``-0.0`` and ``0.0`` differ."""
    return [tuple(repr(value) for value in astuple(row)) for row in rows]


class TestConfidenceSweep:
    def test_rows_equal_the_session_by_session_reference(self, setup, catalog, learner, traces):
        rows = sweep_confidence_threshold(
            ParallelEvaluator(setup=setup, catalog=catalog, jobs=1), learner, traces, THRESHOLDS
        )
        reference = reference_sweep(
            Simulator(setup=setup, catalog=catalog), learner, traces, THRESHOLDS
        )
        assert [(row.app_name, row.confidence_threshold) for row in rows] == [
            (app, threshold) for threshold in THRESHOLDS for app in ("cnn", "ebay")
        ]
        assert bits(rows) == bits(reference)
        # The degree is read from the folded counters: PES speculated.
        assert any(row.mean_prediction_degree > 0 for row in rows)

    def test_one_worker_equals_two(self, setup, catalog, learner, traces):
        serial, pooled = (
            sweep_confidence_threshold(
                ParallelEvaluator(setup=setup, catalog=catalog, jobs=jobs),
                learner,
                traces,
                THRESHOLDS,
            )
            for jobs in (1, 2)
        )
        assert bits(serial) == bits(pooled)

    def test_the_sweep_is_one_matrix_run(self, setup, catalog, learner, traces, monkeypatch):
        calls = []
        evaluate_matrix = ParallelEvaluator.evaluate_matrix

        def counted(self, sweeps, **kwargs):
            calls.append([(sweep.key, sweep.schemes, sweep.pes_config) for sweep in sweeps])
            return evaluate_matrix(self, sweeps, **kwargs)

        monkeypatch.setattr(ParallelEvaluator, "evaluate_matrix", counted)
        sweep_confidence_threshold(
            ParallelEvaluator(setup=setup, catalog=catalog, jobs=1), learner, traces, THRESHOLDS
        )
        assert len(calls) == 1
        (sweeps,) = calls
        assert [schemes for _, schemes, _ in sweeps] == [("EBS",), ("PES",), ("PES",)]
        assert [config.confidence_threshold for _, _, config in sweeps[1:]] == list(THRESHOLDS)

    def test_no_threshold_is_refused(self, setup, catalog, learner, traces):
        with pytest.raises(ValueError, match="at least one threshold"):
            sweep_confidence_threshold(ParallelEvaluator(setup=setup, catalog=catalog, jobs=1), learner, traces, ())

    def test_a_repeated_threshold_is_refused_by_name(self, setup, catalog, learner, traces):
        with pytest.raises(ValueError, match="0.7 is repeated"):
            sweep_confidence_threshold(
                ParallelEvaluator(setup=setup, catalog=catalog, jobs=1),
                learner,
                traces,
                (0.7, 0.5, 0.7),
            )
