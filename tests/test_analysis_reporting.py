"""Tests for the plain-text reporting helpers."""

import pytest

from repro.analysis.reporting import format_percentage, format_table


class TestPercentages:
    def test_format_percentage(self):
        assert format_percentage(0.265) == "26.5%"
        assert format_percentage(0.07512, decimals=2) == "7.51%"


class TestTable:
    def test_renders_headers_and_rows(self):
        table = format_table(["app", "energy"], [["cnn", 0.75], ["bbc", 0.8123456]])
        lines = table.splitlines()
        assert lines[0].startswith("app")
        assert "cnn" in lines[2]
        assert "0.812" in lines[3]

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_empty_rows_ok(self):
        table = format_table(["a", "b"], [])
        assert "a" in table


def _metrics(scheme: str, energy: float):
    from repro.runtime.metrics import AggregateMetrics

    return AggregateMetrics(
        scheduler_name=scheme,
        n_sessions=1,
        n_events=10,
        total_energy_mj=energy,
        qos_violation_rate=0.1,
        mean_latency_ms=50.0,
        wasted_energy_mj=0.0,
        wasted_time_ms=0.0,
        mispredictions=0,
        commits=0,
    )


class TestSweepTables:
    def test_energy_table_folds_cells_per_variant(self):
        from repro.analysis.reporting import sweep_energy_table

        rows = {
            "exynos5410/default/core": {"Interactive": _metrics("Interactive", 100.0), "EBS": _metrics("EBS", 80.0)},
            "exynos5410/flash_crowd/core": {"Interactive": _metrics("Interactive", 300.0), "EBS": _metrics("EBS", 240.0)},
            "exynos5410+b2/default/core": {"Interactive": _metrics("Interactive", 50.0), "EBS": _metrics("EBS", 25.0)},
        }
        table = sweep_energy_table(rows)
        lines = table.splitlines()
        variant_lines = [line for line in lines if line.startswith("exynos5410 ")]
        assert len(variant_lines) == 1  # the two exynos cells fold into one row
        assert "80.0%" in variant_lines[0]  # (80+240)/(100+300)
        b2_line = next(line for line in lines if line.startswith("exynos5410+b2"))
        assert "50.0%" in b2_line
        assert "400" in variant_lines[0]  # absolute baseline total

    def test_energy_table_zero_baseline_renders_na(self):
        from repro.analysis.reporting import sweep_energy_table

        table = sweep_energy_table({"dead/x/y": {"Interactive": _metrics("Interactive", 0.0)}})
        assert "n/a" in table

    def test_platform_table_shows_derived_hardware(self):
        from repro.analysis.reporting import sweep_platform_table
        from repro.scenarios import ScenarioSpec

        specs = [
            ScenarioSpec(name="base", schemes=("Interactive",)),
            ScenarioSpec(
                name="hot",
                schemes=("Interactive",),
                big_cores=2,
                thermal="cramped_chassis",
                regime="marathon",
            ),
        ]
        table = sweep_platform_table(specs)
        lines = table.splitlines()
        base_line = next(line for line in lines if line.startswith("base"))
        hot_line = next(line for line in lines if line.startswith("hot"))
        assert "1800" in base_line
        assert "cramped_chassis" in hot_line
        assert "1800" not in hot_line  # the throttle bit
