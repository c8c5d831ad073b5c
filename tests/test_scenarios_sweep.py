"""Tests for platform-parameter sweeps in the scenario matrix.

Covers the sweep axis end to end: variant expansion and labelling,
spec-level platform overrides (core counts, ``perf_scale``, thermal
curves), the exact flat-cap degeneration of constant thermal curves, and
the ``jobs=N == jobs=1`` bit-identity of swept matrices.
"""

from __future__ import annotations

import pytest

from repro.hardware.platforms import get_platform
from repro.runtime.parallel import MatrixSweep, ParallelEvaluator
from repro.runtime.simulator import SimulationSetup
from repro.scenarios import (
    PlatformSweep,
    PlatformVariant,
    ScenarioMatrix,
    ScenarioRunner,
    ScenarioSpec,
    get_matrix,
)

from pool_payloads import pool_payloads


class TestPlatformVariant:
    def test_base_variant_label_is_platform_name(self):
        assert PlatformVariant(platform="exynos5410").label == "exynos5410"
        # With no overrides the spec derives the named platform unchanged.
        assert ScenarioSpec(name="x").system() == get_platform("exynos5410")

    def test_label_tokens_cover_every_override(self):
        variant = PlatformVariant(
            platform="tegra_parker",
            big_cores=2,
            little_cores=8,
            perf_scale=0.3,
            thermal="passive_phone",
        )
        assert variant.label == "tegra_parker+b2+l8+ps0.3+th.passive_phone"

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError, match="platform"):
            PlatformVariant(platform="snapdragon")
        with pytest.raises(ValueError, match="big_cores"):
            PlatformVariant(big_cores=0)
        with pytest.raises(ValueError, match="perf_scale"):
            PlatformVariant(perf_scale=1.5)
        with pytest.raises(KeyError, match="thermal"):
            PlatformVariant(thermal="liquid_nitrogen")

    def test_system_applies_overrides_and_thermal(self):
        system = ScenarioSpec(name="x", big_cores=2, thermal="cramped_chassis").system()
        assert system.big_cluster.core_count == 2
        assert system.big_cluster.max_frequency_mhz < 1800


class TestPlatformSweep:
    def test_variant_count_is_axis_product(self):
        # 0.3/0.7 collide with neither platform's base perf_scale
        # (0.45/0.6), so no cell collapses and the count is the product.
        sweep = PlatformSweep(
            platforms=("exynos5410", "tegra_parker"),
            big_core_counts=(None, 2),
            perf_scales=(None, 0.3, 0.7),
            thermal_models=(None, "passive_phone"),
        )
        variants = sweep.variants()
        assert len(variants) == 2 * 2 * 3 * 2
        assert len({v.label for v in variants}) == len(variants)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            PlatformSweep(thermal_models=())

    def test_duplicate_axis_entries_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PlatformSweep(big_core_counts=(2, 2))

    def test_bad_axis_value_fails_at_construction(self):
        with pytest.raises(KeyError, match="thermal"):
            PlatformSweep(thermal_models=("nope",))

    def test_base_equal_override_collapses_into_baseline(self):
        # exynos5410's big cluster already has 4 cores: None and 4 derive
        # the same platform, so the sweep yields one baseline cell, not two
        # identically-derived cells under different labels.
        sweep = PlatformSweep(platforms=("exynos5410",), big_core_counts=(None, 4, 2))
        assert [v.label for v in sweep.variants()] == ["exynos5410", "exynos5410+b2"]
        assert len(sweep.variants()) == 2

    def test_base_equal_override_still_bites_on_other_platform(self):
        # The same axis normalises per platform: 4 little cores is the
        # Exynos baseline but a real variant on the 2-little-core Tegra.
        sweep = PlatformSweep(
            platforms=("exynos5410", "tegra_parker"), little_core_counts=(None, 4)
        )
        labels = [v.label for v in sweep.variants()]
        assert labels == ["exynos5410", "tegra_parker", "tegra_parker+l4"]


class TestSpecPlatformOverrides:
    def test_overrides_reach_the_derived_system(self):
        spec = ScenarioSpec(
            name="x", big_cores=2, little_cores=8, perf_scale=0.3, thermal="passive_phone"
        )
        system = spec.system()
        assert system.big_cluster.core_count == 2
        assert system.little_cluster.core_count == 8
        assert system.little_cluster.perf_scale == 0.3

    def test_invalid_overrides_fail_at_spec_construction(self):
        with pytest.raises(ValueError, match="big_cores"):
            ScenarioSpec(name="x", big_cores=-1)
        with pytest.raises(KeyError, match="thermal"):
            ScenarioSpec(name="x", thermal="nope")

    def test_overrides_round_trip_through_dict(self):
        spec = ScenarioSpec(
            name="x",
            big_cores=2,
            perf_scale=0.3,
            thermal="cramped_chassis",
            schemes=("Interactive",),
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_legacy_payload_without_override_fields_loads(self):
        # Pre-sweep SCENARIOS_*.json artefacts carry no override keys.
        payload = {"name": "old", "apps": "core", "schemes": ["Interactive"]}
        spec = ScenarioSpec.from_dict(payload)
        assert spec.big_cores is None and spec.thermal is None

    def test_thermal_dwell_follows_the_regime(self):
        # flash_crowd's 45 s sessions never heat the package to the
        # steady-state temperature a 10-minute marathon reaches, so the
        # same curve throttles the marathon harder.
        burst = ScenarioSpec(name="b", regime="flash_crowd", thermal="passive_phone")
        marathon = ScenarioSpec(name="m", regime="marathon", thermal="passive_phone")
        assert (
            burst.system().big_cluster.max_frequency_mhz
            > marathon.system().big_cluster.max_frequency_mhz
        )

    def test_regime_cap_and_thermal_compose_as_minimum(self):
        spec = ScenarioSpec(name="x", regime="low_battery", thermal="passive_phone")
        system = spec.system()
        assert system.big_cluster.max_frequency_mhz <= 1100
        assert system.big_cluster.design_max_frequency_mhz == 1800


class TestMatrixPlatformSweep:
    def test_sweep_replaces_platform_axis(self):
        matrix = ScenarioMatrix(
            name="m",
            platform_sweep=PlatformSweep(
                big_core_counts=(None, 2), thermal_models=(None, "passive_phone")
            ),
            regimes=("default", "flash_crowd"),
        )
        specs = matrix.expand()
        assert len(specs) == matrix.n_cells == 4 * 2
        assert len({spec.name for spec in specs}) == len(specs)
        assert specs[0].name == "exynos5410/default/core"
        assert any("+b2+th.passive_phone/" in spec.name for spec in specs)

    def test_sweep_cells_carry_the_variant_fields(self):
        matrix = ScenarioMatrix(
            name="m",
            platform_sweep=PlatformSweep(big_core_counts=(2,), perf_scales=(0.3,)),
        )
        (spec,) = matrix.expand()
        assert spec.big_cores == 2
        assert spec.perf_scale == 0.3
        assert spec.platform == "exynos5410"

    def test_platforms_and_sweep_together_rejected(self):
        with pytest.raises(ValueError, match="platform_sweep"):
            ScenarioMatrix(
                name="m",
                platforms=("tegra_parker",),
                platform_sweep=PlatformSweep(),
            )
        # Explicitly passing the would-be default platforms axis is a
        # conflict too, not a silent drop.
        with pytest.raises(ValueError, match="platform_sweep"):
            ScenarioMatrix(
                name="m",
                platforms=("exynos5410",),
                platform_sweep=PlatformSweep(platforms=("tegra_parker",)),
            )

    def test_omitted_platforms_axis_defaults_to_primary_platform(self):
        matrix = ScenarioMatrix(name="m")
        assert [v.platform for v in matrix.platform_variants()] == ["exynos5410"]

    def test_builtin_sweep_matrices_expand(self):
        for name in ("platform_sweep", "thermal"):
            matrix = get_matrix(name)
            specs = matrix.expand()
            assert len(specs) == matrix.n_cells
            assert len({spec.name for spec in specs}) == len(specs)


@pytest.fixture(scope="module")
def swept_matrix() -> ScenarioMatrix:
    """A small core-count x perf_scale x thermal grid, reactive schemes only.

    ``perf_scale`` sweeps *upward* (0.45 -> 0.9): a little cluster that
    retires closer to big-core IPC starts winning EBS placements, which is
    the observable consequence the sweep axis exists to expose.
    """
    return ScenarioMatrix(
        name="test_sweep",
        platform_sweep=PlatformSweep(
            platforms=("exynos5410",),
            big_core_counts=(None, 2),
            perf_scales=(None, 0.9),
            thermal_models=(None, "cramped_chassis"),
        ),
        regimes=("default",),
        app_mixes=("core",),
        schemes=("Interactive", "EBS"),
    )


@pytest.fixture(scope="module")
def swept_serial(catalog, swept_matrix):
    return ScenarioRunner(catalog=catalog, jobs=1).run(swept_matrix.expand())


class TestSweptMatrixExecution:
    def test_every_cell_produces_aggregates(self, swept_matrix, swept_serial):
        assert len(swept_serial) == swept_matrix.n_cells
        for result in swept_serial:
            assert set(result.aggregates) == set(result.spec.schemes)

    def test_jobs_equivalence_on_swept_platforms(self, catalog, swept_matrix, swept_serial):
        """jobs=N == jobs=1 must hold when cells differ only in platform
        overrides — the worker-local simulator cache keys on the cell name,
        which encodes every override."""
        parallel = ScenarioRunner(catalog=catalog, jobs=3).run(swept_matrix.expand())
        for serial_result, parallel_result in zip(swept_serial, parallel):
            assert parallel_result.spec == serial_result.spec
            assert parallel_result.aggregates == serial_result.aggregates

    def test_variants_actually_change_the_outcome(self, swept_serial):
        by_name = {result.spec.name: result for result in swept_serial}
        base = by_name["exynos5410/default/core"]
        throttled = by_name["exynos5410+th.cramped_chassis/default/core"]
        fewer_cores = by_name["exynos5410+b2/default/core"]
        capable_little = by_name["exynos5410+ps0.9/default/core"]
        base_energy = base.aggregates["Interactive"].overall.total_energy_mj
        # Fewer big cores -> less leakage+idle silicon -> strictly less energy.
        assert fewer_cores.aggregates["Interactive"].overall.total_energy_mj < base_energy
        # A near-big-IPC little cluster wins some EBS placements.
        assert capable_little.aggregates["EBS"].overall.total_energy_mj != base.aggregates["EBS"].overall.total_energy_mj
        # The cramped chassis throttles the big cluster over a full session.
        assert throttled.aggregates != base.aggregates


class TestConstantCurveFlatCapEquivalence:
    def test_constant_thermal_reproduces_flat_cap_results_exactly(self, catalog):
        """Acceptance: a constant thermal curve must reproduce the existing
        flat-cap (``with_frequency_cap``) results bit for bit."""
        runner = ScenarioRunner(catalog=catalog, jobs=1)
        thermal_spec = ScenarioSpec(
            name="thermal",
            apps=("cnn",),
            schemes=("Interactive", "EBS"),
            thermal="constant_1100",
        )
        thermal_sweep = runner.build_sweep(thermal_spec)

        flat_sweep = MatrixSweep(
            key="flat",
            setup=SimulationSetup(system=get_platform("exynos5410").with_frequency_cap(1100)),
            traces=thermal_sweep.traces,
            schemes=thermal_sweep.schemes,
        )
        evaluator = ParallelEvaluator(catalog=catalog, jobs=1)
        aggregates, payloads = pool_payloads(evaluator, [thermal_sweep, flat_sweep])
        by_cell: dict[str, list] = {}
        for key, scheme, index, payload in payloads:
            by_cell.setdefault(key, []).append((scheme, index, payload))
        assert by_cell["thermal"] == by_cell["flat"]
        assert aggregates["thermal"] == aggregates["flat"]

    def test_spec_system_equals_flat_capped_platform(self):
        spec = ScenarioSpec(name="x", thermal="constant_1100")
        assert spec.system() == get_platform("exynos5410").with_frequency_cap(1100)
