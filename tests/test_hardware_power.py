"""Unit tests for the power model and the power lookup table."""

import pytest

from repro.hardware.acmp import AcmpConfig
from repro.hardware.platforms import exynos_5410
from repro.hardware.power import ClusterPowerParams, PowerModel, PowerTable


@pytest.fixture
def system():
    return exynos_5410()


@pytest.fixture
def table(system):
    return PowerModel().build_table(system)


class TestClusterPowerParams:
    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            ClusterPowerParams(static_w=-0.1, dynamic_coeff_w=1.0)

    def test_rejects_sublinear_exponent(self):
        with pytest.raises(ValueError):
            ClusterPowerParams(static_w=0.1, dynamic_coeff_w=1.0, exponent=0.5)


class TestPowerModel:
    def test_table_covers_every_configuration(self, system, table):
        for config in system.configurations():
            assert table.power_w(config) > 0

    def test_power_increases_with_frequency_within_cluster(self, system, table):
        for cluster in system.clusters:
            powers = [
                table.power_w(AcmpConfig(cluster.name, f)) for f in cluster.frequencies_mhz
            ]
            assert powers == sorted(powers)

    def test_big_cluster_hungrier_than_little_at_top_frequency(self, system, table):
        big_max = table.power_w(system.max_performance_config)
        little_max = table.power_w(
            AcmpConfig(system.little_cluster.name, system.little_cluster.max_frequency_mhz)
        )
        assert big_max > 5 * little_max

    def test_big_max_power_in_realistic_range(self, system, table):
        # The Exynos 5410 A15 cluster draws a few watts flat out.
        assert 2.0 < table.power_w(system.max_performance_config) < 6.0

    def test_idle_power_below_any_active_power(self, system, table):
        min_active = min(table.power_w(c) for c in system.configurations())
        assert 0 < table.idle_w < min_active * 2  # idle comparable to lowest active

    def test_unknown_config_raises(self, table):
        with pytest.raises(KeyError):
            table.power_w(AcmpConfig("A15", 12345))


class TestPowerTablePersistence:
    def test_rejects_nonpositive_entries(self, system):
        with pytest.raises(ValueError):
            PowerTable(active_w={AcmpConfig("A15", 800): 0.0})


class TestPowerScale:
    """Core-count variants scale leakage (static + idle), never dynamic."""

    def test_default_scale_is_bit_identical_to_seed_model(self, system, table):
        from dataclasses import replace

        rescaled = PowerModel().build_table(
            type(system)(
                name=system.name,
                clusters=tuple(replace(c, power_scale=1.0) for c in system.clusters),
            )
        )
        assert rescaled.active_w == table.active_w
        assert rescaled.idle_w == table.idle_w

    def test_halving_big_cores_halves_big_static_power(self, system):
        from repro.hardware.platforms import derive_platform

        model = PowerModel()
        derived = derive_platform(system, big_cores=2)
        big = system.big_cluster
        params = model.params_for(big)
        config = AcmpConfig(big.name, big.max_frequency_mhz)
        delta = model.active_power_w(system, config) - model.active_power_w(derived, config)
        assert delta == pytest.approx(params.static_w / 2)

    def test_idle_power_scales_with_core_counts(self, system):
        from repro.hardware.platforms import derive_platform

        model = PowerModel()
        doubled = derive_platform(system, big_cores=8, little_cores=8)
        big = model.params_for(system.big_cluster)
        little = model.params_for(system.little_cluster)
        assert model.idle_power_w(doubled) == pytest.approx(
            2 * big.idle_w + 2 * little.idle_w
        )

    def test_dynamic_power_unchanged_by_core_count(self, system):
        from repro.hardware.platforms import derive_platform

        model = PowerModel()
        derived = derive_platform(system, big_cores=1)
        big = system.big_cluster
        params = model.params_for(big)
        for freq in big.frequencies_mhz:
            config = AcmpConfig(big.name, freq)
            dynamic_full = model.active_power_w(system, config) - params.static_w
            dynamic_one = model.active_power_w(derived, config) - params.static_w / 4
            assert dynamic_one == pytest.approx(dynamic_full)


class TestCappedSystemPower:
    def test_capped_operating_point_draws_uncapped_power(self):
        from repro.hardware.platforms import exynos_5410

        model = PowerModel()
        system = exynos_5410()
        capped = system.with_frequency_cap(1100)
        for config in capped.configurations():
            assert model.active_power_w(capped, config) == pytest.approx(
                model.active_power_w(system, config)
            )

    def test_capped_table_is_submap_of_full_table(self):
        from repro.hardware.platforms import exynos_5410

        model = PowerModel()
        system = exynos_5410()
        full = model.build_table(system)
        capped = model.build_table(system.with_frequency_cap(1100))
        for config, watts in capped.active_w.items():
            assert watts == pytest.approx(full.power_w(config))
