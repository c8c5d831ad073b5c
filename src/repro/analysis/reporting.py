"""Plain-text reporting helpers for the benchmark and scenario harnesses.

The benchmark modules print the rows/series of each paper figure; these
helpers keep that formatting uniform (fixed-width columns, percentages with
one decimal) so the regenerated artefacts are easy to diff against
EXPERIMENTS.md.  The scenario-matrix subcommand reuses the same table
renderer through :func:`scenario_energy_table` / :func:`scenario_qos_table`,
which turn per-scenario per-scheme aggregates into one row per scenario.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.runtime.metrics import AggregateMetrics


def format_percentage(value: float, *, decimals: int = 1) -> str:
    """Render a fraction as a percentage string, e.g. 0.265 -> '26.5%'."""
    return f"{value * 100:.{decimals}f}%"


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    min_width: int = 8,
) -> str:
    """Render a fixed-width text table."""
    if any(len(row) != len(headers) for row in rows):
        raise ValueError("every row must have one cell per header")
    columns = len(headers)
    rendered_rows = [[_render_cell(cell) for cell in row] for row in rows]
    widths = [
        max(min_width, len(str(headers[i])), *(len(r[i]) for r in rendered_rows)) if rendered_rows else max(min_width, len(str(headers[i])))
        for i in range(columns)
    ]
    lines = [
        "  ".join(str(headers[i]).ljust(widths[i]) for i in range(columns)),
        "  ".join("-" * widths[i] for i in range(columns)),
    ]
    for row in rendered_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(columns)))
    return "\n".join(lines)


def _render_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def _scheme_columns(rows: Mapping[str, Mapping[str, AggregateMetrics]]) -> list[str]:
    """Scheme names across all scenarios, in first-appearance order."""
    schemes: list[str] = []
    for per_scheme in rows.values():
        for scheme in per_scheme:
            if scheme not in schemes:
                schemes.append(scheme)
    return schemes


def scenario_energy_table(
    rows: Mapping[str, Mapping[str, AggregateMetrics]],
    *,
    baseline: str | None = None,
) -> str:
    """Per-scenario energy of every scheme relative to the baseline scheme.

    ``rows`` maps scenario name -> scheme -> aggregate metrics.  The
    baseline defaults to each scenario's first scheme; a scenario whose
    baseline energy is not positive renders ``n/a`` instead of dividing.
    """
    schemes = _scheme_columns(rows)
    table_rows: list[list[object]] = []
    for scenario, per_scheme in rows.items():
        base_scheme = baseline if baseline is not None else next(iter(per_scheme))
        base = per_scheme.get(base_scheme)
        base_energy = base.total_energy_mj if base is not None else 0.0
        cells: list[object] = [scenario]
        for scheme in schemes:
            metrics = per_scheme.get(scheme)
            if metrics is None or base_energy <= 0:
                cells.append("n/a")
            else:
                cells.append(format_percentage(metrics.total_energy_mj / base_energy))
        table_rows.append(cells)
    return format_table(["scenario"] + [f"{s} energy" for s in schemes], table_rows, min_width=10)


def sweep_energy_table(
    rows: Mapping[str, Mapping[str, AggregateMetrics]],
    *,
    baseline: str | None = None,
) -> str:
    """Per-platform-variant energy across a swept matrix.

    Cells of a platform sweep are named ``variant/regime/mix``; this table
    folds every cell of one variant together (total energy per scheme
    summed over the variant's regimes and mixes) so the platform axis —
    the thing the sweep varies — reads as one row per variant.  Scheme
    columns are relative to the baseline scheme's summed energy; the
    absolute baseline total is kept as its own column so rows remain
    comparable across variants (a throttled variant can win relatively
    while losing absolutely).
    """
    variant_totals: dict[str, dict[str, float]] = {}
    variant_cells: dict[str, int] = {}
    for cell, per_scheme in rows.items():
        variant = cell.split("/", 1)[0]
        totals = variant_totals.setdefault(variant, {})
        variant_cells[variant] = variant_cells.get(variant, 0) + 1
        for scheme, metrics in per_scheme.items():
            totals[scheme] = totals.get(scheme, 0.0) + metrics.total_energy_mj

    schemes = _scheme_columns(rows)
    table_rows: list[list[object]] = []
    for variant, totals in variant_totals.items():
        base_scheme = baseline if baseline is not None else next(iter(totals))
        base_energy = totals.get(base_scheme, 0.0)
        cells: list[object] = [variant, variant_cells[variant]]
        for scheme in schemes:
            total = totals.get(scheme)
            if total is None or base_energy <= 0:
                cells.append("n/a")
            else:
                cells.append(format_percentage(total / base_energy))
        cells.append(f"{base_energy:.0f}" if base_energy > 0 else "n/a")
        table_rows.append(cells)
    headers = (
        ["variant", "cells"]
        + [f"{s} energy" for s in schemes]
        + [f"{baseline if baseline is not None else 'baseline'} (mJ)"]
    )
    return format_table(headers, table_rows, min_width=10)


def sweep_platform_table(specs: Sequence) -> str:
    """What each swept cell's platform actually is after derivation.

    One row per :class:`~repro.scenarios.spec.ScenarioSpec`: the override
    axes (core counts, little ``perf_scale``, thermal curve) and the
    *effective* top frequency after the regime cap and the thermal
    throttle have been applied — the column that shows what a thermal
    curve did to each variant under each regime's heat-up dwell.
    """
    table_rows: list[list[object]] = []
    for spec in specs:
        system = spec.system()
        big = system.big_cluster
        little = system.little_cluster
        table_rows.append(
            [
                spec.name,
                big.core_count,
                little.core_count,
                f"{little.perf_scale:g}",
                spec.thermal if spec.thermal is not None else "-",
                big.max_frequency_mhz,
            ]
        )
    return format_table(
        ["scenario", "big", "little", "perf_scale", "thermal", "top MHz"],
        table_rows,
        min_width=6,
    )


def scenario_thermal_table(results: Sequence) -> str:
    """Per-scenario thermal telemetry of every dynamic-thermal scheme cell.

    ``results`` is a sequence of
    :class:`~repro.scenarios.runner.ScenarioResult`; only cells whose
    aggregates carry a :class:`~repro.runtime.metrics.ThermalAggregate`
    (i.e. ``thermal_mode="dynamic"`` replays) contribute rows.  Returns an
    empty string when no cell tracked thermal state, so callers can print
    the table only when it has something to say.
    """
    table_rows: list[list[object]] = []
    for result in results:
        for scheme, aggregates in result.aggregates.items():
            thermal = getattr(aggregates, "thermal", None)
            if thermal is None:
                continue
            table_rows.append(
                [
                    result.spec.name,
                    scheme,
                    f"{thermal.peak_temperature_c:.1f}",
                    format_percentage(thermal.throttle_residency),
                    format_percentage(thermal.throttle_slowdown),
                ]
            )
    if not table_rows:
        return ""
    return format_table(
        ["scenario", "scheme", "peak C", "throttle res.", "throttle slowdown"],
        table_rows,
        min_width=10,
    )


def scenario_faults_table(results: Sequence) -> str:
    """Per-scenario resilience telemetry of every fault-injected scheme cell.

    ``results`` is a sequence of
    :class:`~repro.scenarios.runner.ScenarioResult`; only cells whose
    aggregates carry a :class:`~repro.runtime.metrics.FaultAggregate`
    (i.e. replays with a non-null fault spec) contribute rows.  Returns an
    empty string when no cell injected faults, so callers can print the
    table only when it has something to say.
    """
    table_rows: list[list[object]] = []
    for result in results:
        for scheme, aggregates in result.aggregates.items():
            faults = getattr(aggregates, "faults", None)
            if faults is None:
                continue
            table_rows.append(
                [
                    result.spec.name,
                    scheme,
                    faults.injected,
                    faults.recovered,
                    faults.battery_injected,
                    faults.battery_recovered,
                    format_percentage(faults.recovery_rate),
                    format_percentage(faults.energy_inflation),
                ]
            )
    if not table_rows:
        return ""
    return format_table(
        [
            "scenario",
            "scheme",
            "injected",
            "recovered",
            "battery inj.",
            "battery rec.",
            "recovery",
            "energy infl.",
        ],
        table_rows,
        min_width=8,
    )


def _na(value: object, render) -> str:
    return "n/a" if value is None else render(value)


def fleet_percentile_table(payload: Mapping) -> str:
    """Population percentiles of a ``FLEET_*.json`` payload, one row per
    (scheme, metric): nearest-rank p50/p95/p99 over the device population.
    ``n/a`` marks metrics no device tracked (e.g. throttle residency of a
    fleet whose every device drew an unthrottled chassis)."""
    table_rows: list[list[object]] = []
    for scheme, block in payload["population"].items():
        for metric, quantiles in block["percentiles"].items():
            table_rows.append(
                [scheme, metric]
                + [_na(quantiles[label], lambda v: f"{v:.3f}") for label in ("p50", "p95", "p99")]
            )
    return format_table(["scheme", "metric", "p50", "p95", "p99"], table_rows, min_width=10)


def fleet_slice_table(payload: Mapping) -> str:
    """Per-slice win/loss table of a ``FLEET_*.json`` payload.

    One row per fleet slice: how many devices it holds, then per scheme
    the win/loss/tie counts against the baseline scheme, the mean
    normalised energy, and the slice's p95 throttle residency — the table
    that answers "which part of the fleet does this scheme help or hurt".
    """
    schemes = list(payload["population"])
    table_rows: list[list[object]] = []
    for label, entry in payload["slices"].items():
        cells: list[object] = [label, entry["n_devices"]]
        for scheme in schemes:
            block = entry["schemes"][scheme]
            cells.append(f"{block['wins']}/{block['losses']}/{block['ties']}")
            cells.append(_na(block["mean_normalised_energy"], format_percentage))
            cells.append(_na(block["throttle_residency"]["p95"], format_percentage))
        table_rows.append(cells)
    headers = ["slice", "devices"]
    for scheme in schemes:
        headers += [f"{scheme} w/l/t", f"{scheme} energy", f"{scheme} p95 thr."]
    return format_table(headers, table_rows, min_width=8)


def fleet_sample_table(devices: Sequence) -> str:
    """What a sampled fleet looks like, one row per
    :class:`~repro.fleet.population.Device` (the ``fleet sample`` view)."""
    table_rows: list[list[object]] = []
    for device in devices:
        table_rows.append(
            [
                device.name,
                device.variant.label,
                device.regime,
                device.mix,
                "+".join(device.apps),
                device.thermal if device.thermal is not None else "-",
                f"{device.ambient_c:g}" if device.ambient_c is not None else "-",
                device.fault if device.fault is not None else "-",
            ]
        )
    return format_table(
        ["device", "platform", "regime", "mix", "apps", "thermal", "amb C", "fault"],
        table_rows,
        min_width=6,
    )


def scenario_qos_table(rows: Mapping[str, Mapping[str, AggregateMetrics]]) -> str:
    """Per-scenario QoS violation rate of every scheme."""
    schemes = _scheme_columns(rows)
    table_rows: list[list[object]] = []
    for scenario, per_scheme in rows.items():
        cells: list[object] = [scenario]
        for scheme in schemes:
            metrics = per_scheme.get(scheme)
            cells.append(
                format_percentage(metrics.qos_violation_rate) if metrics is not None else "n/a"
            )
        table_rows.append(cells)
    return format_table(["scenario"] + [f"{s} QoS viol." for s in schemes], table_rows, min_width=10)
