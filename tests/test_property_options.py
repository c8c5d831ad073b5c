"""Differential tests (hypothesis) of ``enumerate_options`` against the naive sweep.

``enumerate_options`` evaluates Eqn. 1 over each platform's precomputed
operating-point table.  The reference here is the sweep it replaced:
``workload.latency_ms(system, config)`` over ``system.configurations()`` of
a freshly capped platform, sorted by (latency, energy) and pruned to the
Pareto front.  The two must agree exactly, down to the bits of every float.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.hardware.acmp import AcmpSystem, Cluster, ClusterKind
from repro.hardware.dvfs import DvfsModel
from repro.hardware.platforms import get_platform, list_platforms
from repro.hardware.power import PowerModel
from repro.schedulers.base import ConfigOption, capped_system, enumerate_options

PLATFORMS = {name: get_platform(name) for name in list_platforms()}
POWER_TABLES = {name: PowerModel().build_table(system) for name, system in PLATFORMS.items()}

workloads = st.builds(
    DvfsModel,
    tmem_ms=st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
    ndep_mcycles=st.floats(min_value=0.0, max_value=5000.0, allow_nan=False),
)


def naive_options(system, power_table, workload, pareto_only):
    options = [
        ConfigOption(config, workload.latency_ms(system, config), power_table.power_w(config))
        for config in system.configurations()
    ]
    options.sort(key=lambda o: (o.latency_ms, o.energy_mj))
    if not pareto_only:
        return options
    pruned: list[ConfigOption] = []
    best_energy = float("inf")
    for option in options:
        if option.energy_mj < best_energy - 1e-12:
            pruned.append(option)
            best_energy = option.energy_mj
    return pruned


def bits(options):
    return [
        (o.config, o.latency_ms.hex(), o.power_w.hex(), o.energy_mj.hex()) for o in options
    ]


def caps(system):
    """``None`` (no throttle) and every rung of every cluster's ladder."""
    return [None, *sorted({f for cluster in system.clusters for f in cluster.frequencies_mhz})]


class TestEnumerateOptionsMatchesNaiveSweep:
    @given(workload=workloads)
    @example(workload=DvfsModel(0.0, 0.0))
    @example(workload=DvfsModel(0.0, 250.0))
    @example(workload=DvfsModel(12.5, 0.0))
    @settings(max_examples=40, deadline=None)
    def test_every_platform_cap_and_prune(self, workload):
        for name, system in PLATFORMS.items():
            power_table = POWER_TABLES[name]
            for cap_mhz in caps(system):
                reference_system = system if cap_mhz is None else system.with_frequency_cap(cap_mhz)
                for pareto_only in (False, True):
                    expected = naive_options(reference_system, power_table, workload, pareto_only)
                    got = enumerate_options(
                        system, power_table, workload, pareto_only=pareto_only, cap_mhz=cap_mhz
                    )
                    assert got == expected
                    assert bits(got) == bits(expected)

    def test_mutating_a_result_leaves_the_next_call_unchanged(self):
        system, power_table = PLATFORMS["exynos5410"], POWER_TABLES["exynos5410"]
        workload = DvfsModel(4.0, 180.0)
        expected = bits(naive_options(system, power_table, workload, pareto_only=True))
        first = enumerate_options(system, power_table, workload, pareto_only=True)
        first.reverse()
        first.append(first[0])
        first[0] = first[-1]
        again = enumerate_options(system, power_table, workload, pareto_only=True)
        assert again is not first
        assert bits(again) == expected

    def test_capped_platforms_are_derived_once_per_base(self):
        system = get_platform("exynos5410")
        top = system.big_cluster.max_frequency_mhz
        assert capped_system(system, top) is system
        assert capped_system(system, 1200) is capped_system(system, 1200)
        assert capped_system(system, 1200) == system.with_frequency_cap(1200)
        assert capped_system(get_platform("exynos5410"), 1200) is not capped_system(system, 1200)

    def test_non_positive_effective_frequency_is_rejected(self):
        system = AcmpSystem(
            name="broken",
            clusters=(Cluster("big", ClusterKind.BIG, 1, (0, 1000)),),
        )
        power_table = PowerModel().build_table(system)
        for _ in range(2):
            with pytest.raises(ValueError, match="non-positive frequency"):
                enumerate_options(system, power_table, DvfsModel(1.0, 10.0))
