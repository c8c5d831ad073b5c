#!/usr/bin/env python3
"""Full evaluation: every application, every scheduler (Figs. 11-13).

Trains the predictor on the 12 seen applications, generates fresh
evaluation sessions for all 18 applications, replays each under
Interactive, Ondemand, EBS, PES, and the oracle, and prints the normalised
energy, QoS violation, and Pareto summary.

Usage:
    python examples/full_evaluation.py [traces_per_app]

``traces_per_app`` defaults to 1 so the example finishes in a couple of
minutes; the benchmark harness (benchmarks/) runs the larger version.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.analysis.pareto import non_dominated_schemes, points_from_metrics
from repro.core.predictor.training import PredictorTrainer
from repro.runtime.metrics import normalised_energy_by_app
from repro.runtime.parallel import ParallelEvaluator
from repro.traces.generator import TraceGenerator
from repro.webapp.apps import SEEN_APPS, UNSEEN_APPS, AppCatalog

SCHEMES = ["Interactive", "Ondemand", "EBS", "PES", "Oracle"]


def main() -> None:
    traces_per_app = int(sys.argv[1]) if len(sys.argv) > 1 else 1

    catalog = AppCatalog()
    generator = TraceGenerator(catalog=catalog)
    evaluator = ParallelEvaluator(catalog=catalog, jobs=1)

    print("Training the event predictor on the 12 seen applications...")
    training = generator.generate_many(list(SEEN_APPS), traces_per_app=6, base_seed=0)
    learner = PredictorTrainer(catalog=catalog).train(training).learner

    print(f"Generating {traces_per_app} evaluation trace(s) per application...")
    evaluation = generator.generate_many(
        list(SEEN_APPS) + list(UNSEEN_APPS), traces_per_app, base_seed=700_000
    )

    print("Replaying every trace under every scheme (this is the slow part)...")
    aggregates = evaluator.compare(evaluation, SCHEMES, learner=learner)

    # Per-app normalised energy (Fig. 11) and QoS violation (Fig. 12).
    normalised = normalised_energy_by_app(aggregates, baseline="Interactive")
    print(f"\n{'app':<15} {'set':<7}" + "".join(f"{s:>13}" for s in SCHEMES) + "   (energy % of Interactive)")
    for app in list(SEEN_APPS) + list(UNSEEN_APPS):
        group = "seen" if app in SEEN_APPS else "unseen"
        print(
            f"{app:<15} {group:<7}"
            + "".join(f"{normalised[s][app] * 100:>12.1f}%" for s in SCHEMES)
        )

    print(f"\n{'scheme':<13} {'norm. energy':>13} {'QoS violation':>15}")
    metrics = {scheme: aggregates[scheme].overall for scheme in SCHEMES}
    base_energy = metrics["Interactive"].total_energy_mj
    for scheme in SCHEMES:
        print(
            f"{scheme:<13} {metrics[scheme].total_energy_mj / base_energy * 100:>12.1f}% "
            f"{metrics[scheme].qos_violation_rate * 100:>14.1f}%"
        )

    for label, apps in (("seen", SEEN_APPS), ("unseen", UNSEEN_APPS)):
        pes = float(np.mean([normalised["PES"][a] for a in apps]))
        ebs = float(np.mean([normalised["EBS"][a] for a in apps]))
        print(
            f"\n[{label}] PES saves {(1 - pes) * 100:.1f}% energy vs Interactive "
            f"and {(1 - pes / ebs) * 100:.1f}% vs EBS"
        )

    points = points_from_metrics(metrics, baseline="Interactive")
    print(f"\nPareto frontier (Fig. 13): {sorted(non_dominated_schemes(points))}")


if __name__ == "__main__":
    main()
