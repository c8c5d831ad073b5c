"""Fig. 13 — Pareto analysis of the scheduling schemes.

Plots every scheme (Interactive, Ondemand, EBS, PES, Oracle) as a point in
(QoS violation, energy normalised to Interactive) space.  The paper's claim
is that PES Pareto-dominates every existing scheme — it sits on the
frontier together with (only) the oracle.
"""

from __future__ import annotations

from benchmarks.conftest import write_result
from repro.analysis.pareto import dominates, non_dominated_schemes, points_from_metrics
from repro.analysis.reporting import format_table

SCHEMES = ("Interactive", "Ondemand", "EBS", "PES", "Oracle")


def build_points(scheme_aggregates):
    metrics = {scheme: scheme_aggregates[scheme].overall for scheme in SCHEMES}
    return {p.scheme: p for p in points_from_metrics(metrics, baseline="Interactive")}


def test_fig13_pareto(benchmark, scheme_aggregates):
    points = benchmark.pedantic(build_points, args=(scheme_aggregates,), rounds=1, iterations=1)

    rows = [
        [scheme, f"{points[scheme].qos_violation * 100:.1f}%", round(points[scheme].normalised_energy * 100, 1)]
        for scheme in SCHEMES
    ]
    frontier = non_dominated_schemes(points.values())
    table = format_table(["scheme", "QoS violation", "norm. energy (%)"], rows)
    write_result(
        "fig13_pareto.txt",
        table + f"\n\nPareto frontier: {sorted(frontier)}\n(paper: PES Pareto-dominates all existing schemes)",
    )

    # PES dominates every reactive scheme and is on the frontier.
    for existing in ("Interactive", "Ondemand", "EBS"):
        assert dominates(points["PES"], points[existing]), f"PES should dominate {existing}"
    assert "PES" in frontier or dominates(points["Oracle"], points["PES"])
    # The existing schemes expose the expected trade-off: Ondemand saves
    # energy relative to Interactive but violates QoS more often.
    assert points["Ondemand"].normalised_energy < points["Interactive"].normalised_energy
    assert points["Ondemand"].qos_violation > points["Interactive"].qos_violation
