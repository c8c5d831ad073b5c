#!/usr/bin/env python3
"""The Fig. 2 case study: a four-event cnn.com burst under four schedulers.

Rebuilds the paper's motivating example — a tap with slack (E1), an
inherently heavy tap (E2), and two follow-up events squeezed by the
interference (E3, E4) — and prints the per-event timeline under the OS
governor (Interactive), EBS, PES, and the oracle.
"""

from __future__ import annotations

from repro.core.predictor.training import PredictorTrainer
from repro.hardware.dvfs import DvfsModel
from repro.runtime.simulator import Simulator
from repro.schedulers.ebs import EbsScheduler
from repro.schedulers.interactive import InteractiveGovernor
from repro.traces.generator import TraceGenerator
from repro.traces.trace import Trace, TraceEvent
from repro.webapp.apps import AppCatalog
from repro.webapp.events import EventType


def build_case_study() -> Trace:
    events = [
        TraceEvent(0, EventType.CLICK, "cnn-menu-btn-0", 0.0, DvfsModel(15.0, 160.0)),
        TraceEvent(1, EventType.CLICK, "cnn-sec-0-el-0", 400.0, DvfsModel(40.0, 520.0)),
        TraceEvent(2, EventType.TOUCHSTART, "cnn-sec-0-el-1", 780.0, DvfsModel(15.0, 200.0)),
        TraceEvent(3, EventType.SCROLL, "cnn-body", 1150.0, DvfsModel(4.0, 24.0)),
    ]
    return Trace(app_name="cnn", user_id="fig2-case-study", events=events)


def main() -> None:
    catalog = AppCatalog()
    generator = TraceGenerator(catalog=catalog)
    training = generator.generate_many([p.name for p in catalog.seen()], traces_per_app=4, base_seed=0)
    learner = PredictorTrainer(catalog=catalog).train(training).learner

    simulator = Simulator(catalog=catalog)
    trace = build_case_study()

    results = {
        "Interactive (OS)": simulator.run_reactive(trace, InteractiveGovernor()),
        "EBS": simulator.run_reactive(trace, EbsScheduler()),
        "PES": simulator.run_pes(trace, learner),
        "Oracle": simulator.run_oracle(trace),
    }

    for scheme, result in results.items():
        print(f"\n=== {scheme} ===")
        print(f"{'event':<8} {'arrival':>8} {'start':>8} {'shown':>8} {'latency':>8} {'target':>7} {'config':<18} miss?")
        for event, outcome in zip(trace, result.outcomes):
            print(
                f"E{event.index + 1:<7} {event.arrival_ms:>8.0f} {outcome.start_ms:>8.0f} "
                f"{outcome.display_ms:>8.0f} {outcome.latency_ms:>8.0f} {outcome.qos_target_ms:>7.0f} "
                f"{outcome.config_label:<18} {'MISS' if outcome.violated else 'ok'}"
            )
        print(
            f"total energy {result.total_energy_mj:.0f} mJ, "
            f"{result.violations} QoS violation(s)"
        )

    interactive = results["Interactive (OS)"]
    oracle = results["Oracle"]
    print(
        f"\nOracle removes all {interactive.violations} violation(s) of the OS governor and uses "
        f"{(1 - oracle.total_energy_mj / interactive.total_energy_mj):.0%} less energy — the "
        "coordination opportunity PES exploits by predicting E2-E4 ahead of time."
    )


if __name__ == "__main__":
    main()
