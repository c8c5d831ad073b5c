"""Sensitivity of PES to the confidence threshold (Fig. 14).

The confidence threshold controls the prediction degree: relaxing it lets
the predictor speculate further ahead (larger scheduling window, more
mis-predictions), tightening it shrinks the window until, at 100%, PES
effectively degenerates to EBS.  The sweep replays the same traces under
EBS and under PES configured with each threshold, as one
:meth:`~repro.runtime.parallel.ParallelEvaluator.evaluate_matrix` run (one
sweep per threshold), and reports, per application, the energy and the
QoS-violation reduction normalised to EBS — the same normalisation the
paper plots — and the prediction degree, read from the speculation
counters each cell folds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.pes import PesConfig
from repro.core.predictor.sequence_learner import EventSequenceLearner
from repro.runtime.parallel import MatrixSweep, ParallelEvaluator
from repro.traces.trace import Trace


@dataclass(frozen=True)
class ConfidenceSweepResult:
    """Results for one application at one confidence threshold."""

    app_name: str
    confidence_threshold: float
    energy_vs_ebs: float
    qos_violation_reduction: float
    mean_prediction_degree: float


def sweep_confidence_threshold(
    evaluator: ParallelEvaluator,
    learner: EventSequenceLearner,
    traces: Sequence[Trace],
    thresholds: Sequence[float],
) -> list[ConfidenceSweepResult]:
    """Run the Fig. 14 sweep over ``thresholds`` for the given traces.

    Rows come threshold by threshold, in the order given, and within one
    threshold by application name.  ``evaluator.jobs`` fans the replays
    out; the rows are the same for any worker count.
    """
    if not thresholds:
        raise ValueError("at least one threshold is required")
    # Each threshold is a sweep key below, and keys must be unique.
    repeated = [t for i, t in enumerate(thresholds) if t in thresholds[:i]]
    if repeated:
        raise ValueError(f"confidence threshold {repeated[0]!r} is repeated")
    traces = tuple(traces)
    ebs = MatrixSweep(key="EBS", setup=evaluator.setup, traces=traces, schemes=("EBS",))
    pes = [
        MatrixSweep(
            key=f"PES@{threshold!r}",
            setup=evaluator.setup,
            traces=traces,
            schemes=("PES",),
            pes_config=PesConfig(confidence_threshold=threshold),
        )
        for threshold in thresholds
    ]
    cells = evaluator.evaluate_matrix([ebs, *pes], learner=learner)
    ebs_by_app = {app: fold.finalize() for app, fold in cells[ebs.key]["EBS"].per_app.items()}

    results: list[ConfidenceSweepResult] = []
    for threshold, sweep in zip(thresholds, pes):
        pes_by_app = cells[sweep.key]["PES"].per_app
        for app in sorted(ebs_by_app):
            fold = pes_by_app[app]
            pes_metrics = fold.finalize()
            ebs_metrics = ebs_by_app[app]
            energy_vs_ebs = (
                pes_metrics.total_energy_mj / ebs_metrics.total_energy_mj
                if ebs_metrics.total_energy_mj > 0
                else 1.0
            )
            if ebs_metrics.qos_violation_rate > 0:
                reduction = 1.0 - pes_metrics.qos_violation_rate / ebs_metrics.qos_violation_rate
            else:
                reduction = 0.0
            rounds = fold.prediction_rounds
            results.append(
                ConfidenceSweepResult(
                    app_name=app,
                    confidence_threshold=threshold,
                    energy_vs_ebs=energy_vs_ebs,
                    qos_violation_reduction=reduction,
                    mean_prediction_degree=fold.predictions_made / rounds if rounds else 0.0,
                )
            )
    return results
