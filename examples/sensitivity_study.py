#!/usr/bin/env python3
"""Confidence-threshold sensitivity study (Fig. 14).

Sweeps the predictor's cumulative-confidence threshold and reports, for a
handful of applications, PES energy and QoS-violation reduction normalised
to EBS, plus the resulting prediction degree — reproducing the robustness
analysis that justifies the paper's 70% default.  The sweep is one matrix
run (``ParallelEvaluator.evaluate_matrix``, one sweep per threshold); raise
``jobs`` to fan its replays out over a process pool.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.sensitivity import sweep_confidence_threshold
from repro.core.predictor.training import PredictorTrainer
from repro.runtime.parallel import ParallelEvaluator
from repro.traces.generator import TraceGenerator
from repro.webapp.apps import SEEN_APPS, AppCatalog

THRESHOLDS = (0.3, 0.5, 0.7, 0.9, 1.0)
APPS = ("cnn", "ebay", "google", "slashdot", "sina")


def main() -> None:
    catalog = AppCatalog()
    generator = TraceGenerator(catalog=catalog)
    evaluator = ParallelEvaluator(catalog=catalog, jobs=1)

    training = generator.generate_many(list(SEEN_APPS), traces_per_app=6, base_seed=0)
    learner = PredictorTrainer(catalog=catalog).train(training).learner

    traces = [generator.generate(app, seed=800_000 + i) for i, app in enumerate(APPS)]
    print(f"Sweeping confidence thresholds {[f'{t:.0%}' for t in THRESHOLDS]} over {len(traces)} sessions...")
    sweep = sweep_confidence_threshold(evaluator, learner, traces, THRESHOLDS)

    print(f"\n{'threshold':>9} {'energy vs EBS':>14} {'QoS reduction':>14} {'pred. degree':>13}")
    for threshold in THRESHOLDS:
        rows = [e for e in sweep if e.confidence_threshold == threshold]
        energy = float(np.mean([e.energy_vs_ebs for e in rows]))
        reduction = float(np.mean([e.qos_violation_reduction for e in rows]))
        degree = float(np.mean([e.mean_prediction_degree for e in rows]))
        print(f"{threshold:>8.0%} {energy * 100:>13.1f}% {reduction * 100:>13.1f}% {degree:>13.2f}")

    print(
        "\nAs in the paper: at 100% the predictor cannot speculate and PES degenerates to EBS;"
        "\nrelaxing to ~70% unlocks the benefit, and relaxing further changes little."
    )


if __name__ == "__main__":
    main()
