"""Fig. 12 — QoS violation per application and scheme.

The paper reports, across the seen applications, roughly 24.8% violations
for Interactive, 24.4% for EBS, and 7.5% for PES (the oracle removes all
violations and is omitted from the figure); on unseen applications PES
removes 43.7% / 49.2% of the Interactive / EBS violations.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import write_result
from repro.analysis.reporting import format_table
from repro.webapp.apps import SEEN_APPS, UNSEEN_APPS

SCHEMES = ("Interactive", "EBS", "PES")


def violation_by_app(scheme_aggregates):
    return {
        scheme: {
            app: metrics.qos_violation_rate
            for app, metrics in scheme_aggregates[scheme].per_app.items()
        }
        for scheme in SCHEMES + ("Oracle",)
    }


def test_fig12_qos_violation(benchmark, scheme_aggregates):
    violations = benchmark.pedantic(
        violation_by_app, args=(scheme_aggregates,), rounds=1, iterations=1
    )

    rows = []
    for app in list(SEEN_APPS) + list(UNSEEN_APPS):
        rows.append(
            [app, "seen" if app in SEEN_APPS else "unseen"]
            + [f"{violations[scheme][app] * 100:.1f}%" for scheme in SCHEMES]
        )
    table = format_table(["app", "set", *SCHEMES], rows)

    def mean_over(apps, scheme):
        return float(np.mean([violations[scheme][app] for app in apps]))

    summary = ["", "Averages:"]
    for label, apps in (("seen", SEEN_APPS), ("unseen", UNSEEN_APPS)):
        summary.append(
            f"  {label:6s}: "
            + "  ".join(f"{scheme}={mean_over(apps, scheme) * 100:.1f}%" for scheme in SCHEMES)
            + f"  Oracle={mean_over(apps, 'Oracle') * 100:.1f}%"
        )
    interactive_seen = mean_over(SEEN_APPS, "Interactive")
    ebs_seen = mean_over(SEEN_APPS, "EBS")
    pes_seen = mean_over(SEEN_APPS, "PES")
    summary.append(
        f"  PES removes {100 * (1 - pes_seen / interactive_seen):.1f}% of Interactive's violations "
        f"(paper: 61.2%) and {100 * (1 - pes_seen / ebs_seen):.1f}% of EBS's (paper: 63.1%) on seen apps"
    )
    write_result("fig12_qos.txt", table + "\n".join(summary))

    for apps in (SEEN_APPS, UNSEEN_APPS):
        interactive = mean_over(apps, "Interactive")
        ebs = mean_over(apps, "EBS")
        pes = mean_over(apps, "PES")
        oracle = mean_over(apps, "Oracle")
        assert pes < ebs, "PES should reduce QoS violations relative to EBS"
        assert pes < interactive, "PES should reduce QoS violations relative to Interactive"
        assert pes < 0.6 * ebs, "the reduction should be substantial (paper: ~50-63%)"
        assert oracle <= 0.05, "the oracle should (nearly) remove violations"
