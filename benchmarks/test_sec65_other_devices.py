"""Sec. 6.5 — other devices: the Nvidia TX2 "Parker" platform.

The paper repeats the headline experiment on the TX2's Cortex-A57 cluster
and finds PES achieves about 24.6% energy savings over Interactive,
demonstrating that the improvements are not tied to the (older) Exynos
5410.  This benchmark re-runs a sample of the evaluation on the
``tegra_parker`` platform model.
"""

from __future__ import annotations

from benchmarks.conftest import write_result
from repro.analysis.reporting import format_table
from repro.hardware.platforms import tegra_parker
from repro.runtime.parallel import ParallelEvaluator
from repro.runtime.simulator import SimulationSetup

SAMPLE_APPS = ("cnn", "google", "ebay", "bbc")
SCHEMES = ("Interactive", "EBS", "PES")


def run_on_parker(catalog, evaluation_traces, learner):
    evaluator = ParallelEvaluator(setup=SimulationSetup(system=tegra_parker()), catalog=catalog, jobs=1)
    traces = [t for t in evaluation_traces if t.app_name in SAMPLE_APPS]
    aggregates = evaluator.compare(traces, list(SCHEMES), learner=learner)
    return {scheme: aggregates[scheme].overall for scheme in SCHEMES}


def test_sec65_other_devices(benchmark, catalog, evaluation_traces, learner):
    metrics = benchmark.pedantic(
        run_on_parker, args=(catalog, evaluation_traces, learner), rounds=1, iterations=1
    )

    base = metrics["Interactive"].total_energy_mj
    rows = [
        [
            scheme,
            round(metrics[scheme].total_energy_mj / base * 100, 1),
            f"{metrics[scheme].qos_violation_rate * 100:.1f}%",
        ]
        for scheme in SCHEMES
    ]
    table = format_table(["scheme", "norm. energy (%)", "QoS violation"], rows)
    savings = 1 - metrics["PES"].total_energy_mj / base
    write_result(
        "sec65_other_devices.txt",
        "Platform: tegra_parker (TX2)\n"
        + table
        + f"\n\nPES energy savings vs Interactive: {savings * 100:.1f}% (paper: ~24.6%)",
    )

    assert metrics["PES"].total_energy_mj < metrics["EBS"].total_energy_mj
    assert metrics["EBS"].total_energy_mj < metrics["Interactive"].total_energy_mj
    assert savings > 0.10, "PES should deliver double-digit savings on the TX2 model as well"
    assert metrics["PES"].qos_violation_rate < metrics["EBS"].qos_violation_rate * 0.8
