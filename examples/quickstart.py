#!/usr/bin/env python3
"""Quickstart: generate a session, train the predictor, compare schedulers.

Runs in well under a minute and prints, for one cnn.com session, the energy
and QoS of the Android Interactive governor, EBS, PES, and the oracle.
"""

from __future__ import annotations

from repro.core.predictor.training import PredictorTrainer
from repro.runtime.simulator import Simulator
from repro.schedulers.ebs import EbsScheduler
from repro.schedulers.interactive import InteractiveGovernor
from repro.traces.generator import TraceGenerator
from repro.webapp.apps import AppCatalog


def main() -> None:
    catalog = AppCatalog()
    generator = TraceGenerator(catalog=catalog)

    # 1. Train the event predictor on sessions from the 12 "seen" apps.
    training = generator.generate_many([p.name for p in catalog.seen()], traces_per_app=4, base_seed=0)
    learner = PredictorTrainer(catalog=catalog).train(training).learner

    # 2. Generate a fresh user session (a different "user" than training).
    trace = generator.generate("cnn", seed=123_456)
    print(f"Session: {len(trace)} events over {trace.duration_ms / 1000:.0f} s on {trace.app_name}")

    # 3. Replay it under each scheduler on the Exynos 5410 model.
    simulator = Simulator(catalog=catalog)
    results = {
        "Interactive": simulator.run_reactive(trace, InteractiveGovernor()),
        "EBS": simulator.run_reactive(trace, EbsScheduler()),
        "PES": simulator.run_pes(trace, learner),
        "Oracle": simulator.run_oracle(trace),
    }

    # 4. Report.
    base = results["Interactive"].total_energy_mj
    print(f"{'scheme':<12} {'energy (mJ)':>12} {'norm.':>7} {'QoS violations':>15}")
    for name, result in results.items():
        print(
            f"{name:<12} {result.total_energy_mj:>12.0f} {result.total_energy_mj / base:>7.2f} "
            f"{result.violations:>6d} / {result.n_events:<3d} ({result.qos_violation_rate:.0%})"
        )
    pes = results["PES"]
    print(
        f"\nPES predicted {pes.commits + pes.mispredictions} events online, "
        f"{pes.commits} correctly ({pes.prediction_accuracy:.0%} accuracy), "
        f"wasting {pes.wasted_time_ms:.0f} ms of speculative work."
    )


if __name__ == "__main__":
    main()
