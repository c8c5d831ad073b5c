#!/usr/bin/env python3
"""Train the event predictor and reproduce the Fig. 8 accuracy study.

Generates training sessions for the 12 seen applications, fits the
logistic event-sequence model, evaluates next-event prediction accuracy on
fresh sessions of all 18 applications (seen and unseen), and reports the
effect of disabling the DOM analysis (the Sec. 6.5 ablation).  Also
demonstrates persisting the generated traces to disk for later replay.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.core.predictor.training import PredictorTrainer, evaluate_accuracy
from repro.traces.generator import TraceGenerator
from repro.traces.io import load_traces, save_traces
from repro.webapp.apps import SEEN_APPS, UNSEEN_APPS, AppCatalog


def main() -> None:
    catalog = AppCatalog()
    generator = TraceGenerator(catalog=catalog)

    print("Recording training sessions (12 seen applications, 8 users each)...")
    training = generator.generate_many(list(SEEN_APPS), traces_per_app=8, base_seed=0)
    print(f"  {len(training)} sessions, {training.total_events} events")

    # Persist and reload, as the runtime would with recorded traces.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "training_traces.json"
        save_traces(training, path)
        training = load_traces(path)
        print(f"  round-tripped through {path.name} ({path.stat().st_size / 1024:.0f} KiB)")

    print("Training the logistic event-sequence model...")
    trainer = PredictorTrainer(catalog=catalog)
    result = trainer.train(training)
    print(f"  {result.n_samples} samples; per-class counts: {result.class_counts}")

    print("Evaluating on fresh sessions from all 18 applications...")
    evaluation = generator.generate_many(list(SEEN_APPS) + list(UNSEEN_APPS), traces_per_app=2, base_seed=900_000)
    with_dom = evaluate_accuracy(result.learner, evaluation, catalog, use_dom_analysis=True)
    without_dom = evaluate_accuracy(result.learner, evaluation, catalog, use_dom_analysis=False)

    print(f"\n{'app':<15} {'set':<7} {'accuracy':>9} {'no DOM analysis':>16}")
    for app in list(SEEN_APPS) + list(UNSEEN_APPS):
        group = "seen" if app in SEEN_APPS else "unseen"
        print(f"{app:<15} {group:<7} {with_dom[app] * 100:>8.1f}% {without_dom[app] * 100:>15.1f}%")

    seen_mean = float(np.mean([with_dom[a] for a in SEEN_APPS]))
    unseen_mean = float(np.mean([with_dom[a] for a in UNSEEN_APPS]))
    drop = float(np.mean(list(with_dom.values()))) - float(np.mean(list(without_dom.values())))
    print(f"\nSeen average:   {seen_mean * 100:.1f}%   (paper: 91.3%)")
    print(f"Unseen average: {unseen_mean * 100:.1f}%   (paper: 89.2%)")
    print(f"Accuracy drop without DOM analysis: {drop * 100:.1f} points (paper: ~5)")


if __name__ == "__main__":
    main()
