"""Unit tests for the ACMP system description."""

import pytest

from repro.hardware.acmp import AcmpConfig, AcmpSystem, Cluster, ClusterKind
from repro.hardware.platforms import exynos_5410


@pytest.fixture
def system() -> AcmpSystem:
    return exynos_5410()


class TestCluster:
    def test_frequencies_must_ascend(self):
        with pytest.raises(ValueError):
            Cluster("X", ClusterKind.BIG, 4, (1000, 800))

    def test_frequencies_must_be_unique(self):
        with pytest.raises(ValueError):
            Cluster("X", ClusterKind.BIG, 4, (800, 800, 900))

    def test_core_count_positive(self):
        with pytest.raises(ValueError):
            Cluster("X", ClusterKind.BIG, 0, (800,))

    def test_perf_scale_range(self):
        with pytest.raises(ValueError):
            Cluster("X", ClusterKind.LITTLE, 4, (400,), perf_scale=1.5)
        with pytest.raises(ValueError):
            Cluster("X", ClusterKind.LITTLE, 4, (400,), perf_scale=0.0)

    def test_min_max_frequency(self, system):
        big = system.big_cluster
        assert big.min_frequency_mhz == 800
        assert big.max_frequency_mhz == 1800

    def test_ceil_frequency(self, system):
        big = system.big_cluster
        assert big.ceil_frequency(801) == 900
        assert big.ceil_frequency(800) == 800
        assert big.ceil_frequency(5000) == 1800


class TestAcmpSystem:
    def test_configuration_count_exynos(self, system):
        # 11 big frequencies (800..1800 step 100) + 6 little (350..600 step 50).
        assert len(system.configurations()) == 17

    def test_configurations_are_valid(self, system):
        for config in system.configurations():
            assert config.frequency_mhz in system.cluster_of(config).frequencies_mhz

    def test_cluster_of_rejects_unknown_cluster(self, system):
        with pytest.raises(KeyError):
            system.cluster_of(AcmpConfig("M4", 800))

    def test_big_and_little_lookup(self, system):
        assert system.big_cluster.kind is ClusterKind.BIG
        assert system.little_cluster.kind is ClusterKind.LITTLE

    def test_max_and_min_performance_configs(self, system):
        assert system.max_performance_config == AcmpConfig("A15", 1800)
        assert system.min_performance_config == AcmpConfig("A7", 350)

    def test_effective_frequency_scales_little_cluster(self, system):
        big = system.effective_frequency_ghz(AcmpConfig("A15", 1000))
        little = system.effective_frequency_ghz(AcmpConfig("A7", 500))
        assert big == pytest.approx(1.0)
        assert little < 0.5

    def test_duplicate_cluster_names_rejected(self):
        cluster = Cluster("A", ClusterKind.BIG, 4, (800,))
        with pytest.raises(ValueError):
            AcmpSystem("bad", (cluster, cluster))

    def test_missing_little_cluster_raises(self):
        cluster = Cluster("A", ClusterKind.BIG, 4, (800,))
        system = AcmpSystem("bigonly", (cluster,))
        with pytest.raises(LookupError):
            _ = system.little_cluster

    def test_config_ordering_is_deterministic(self, system):
        assert system.configurations() == system.configurations()


class TestFrequencyCap:
    def test_cap_restricts_every_cluster(self, system):
        capped = system.with_frequency_cap(1100)
        assert all(c.max_frequency_mhz <= 1100 for c in capped.clusters)
        assert capped.name != system.name

    def test_kept_operating_points_are_a_prefix(self, system):
        capped = system.with_frequency_cap(1100)
        for original, restricted in zip(system.clusters, capped.clusters):
            expected = tuple(f for f in original.frequencies_mhz if f <= 1100)
            assert restricted.frequencies_mhz == (expected or (original.min_frequency_mhz,))

    def test_cluster_entirely_above_cap_keeps_minimum(self, system):
        capped = system.with_frequency_cap(100)
        for original, restricted in zip(system.clusters, capped.clusters):
            assert restricted.frequencies_mhz == (original.min_frequency_mhz,)

    def test_design_max_preserved_for_power_model(self, system):
        capped = system.with_frequency_cap(1100)
        for original, restricted in zip(system.clusters, capped.clusters):
            if restricted.frequencies_mhz != original.frequencies_mhz:
                assert restricted.design_max_frequency_mhz == original.max_frequency_mhz

    def test_cap_above_ladder_returns_same_system(self, system):
        assert system.with_frequency_cap(10_000) is system

    def test_cap_must_be_positive(self, system):
        with pytest.raises(ValueError):
            system.with_frequency_cap(0)

    def test_nominal_max_cannot_undercut_ladder(self):
        with pytest.raises(ValueError):
            Cluster(
                name="X",
                kind=ClusterKind.BIG,
                core_count=1,
                frequencies_mhz=(500, 1000),
                nominal_max_frequency_mhz=800,
            )


class TestFrequencyCapIdempotence:
    """Regression: re-capping must be a no-op, not a new system.

    Before the fix, re-applying a cap to a cluster whose ladder had
    collapsed to its minimum frequency rebuilt the cluster (``replace``
    always allocates) and stacked another ``@<cap>mhz`` suffix on the
    name — so ``capped.with_frequency_cap(same)`` compared unequal to
    ``capped``, and every by-value consumer (scenario cell dedup, thermal
    fixed-point iteration) saw a phantom new platform.
    """

    def test_same_cap_twice_returns_self(self, system):
        capped = system.with_frequency_cap(1100)
        assert capped.with_frequency_cap(1100) is capped

    def test_same_cap_twice_with_collapsed_ladder_returns_self(self, system):
        # 700 sits below the big cluster's 800 MHz minimum, so the big
        # ladder collapses to (800,) — the branch that used to rebuild.
        capped = system.with_frequency_cap(700)
        assert capped.with_frequency_cap(700) is capped
        assert capped.with_frequency_cap(750) is capped

    def test_recap_rewrites_name_instead_of_stacking(self, system):
        recapped = system.with_frequency_cap(1100).with_frequency_cap(900)
        assert recapped.name == f"{system.name}@900mhz"
        assert "@1100mhz" not in recapped.name

    def test_recap_keeps_original_nominal_max(self, system):
        recapped = system.with_frequency_cap(1100).with_frequency_cap(900)
        for original, restricted in zip(system.clusters, recapped.clusters):
            if restricted.frequencies_mhz != original.frequencies_mhz:
                assert restricted.design_max_frequency_mhz == original.max_frequency_mhz

    def test_higher_cap_after_lower_is_a_no_op(self, system):
        capped = system.with_frequency_cap(900)
        assert capped.with_frequency_cap(1500) is capped

    def test_base_name_strips_only_cap_suffix(self, system):
        assert system.base_name == system.name
        assert system.with_frequency_cap(1100).base_name == system.name
