"""Unit tests for the DVFS latency model (Eqn. 1)."""

import pytest

from repro.hardware.acmp import AcmpConfig
from repro.hardware.dvfs import DvfsModel
from repro.hardware.platforms import exynos_5410


@pytest.fixture
def system():
    return exynos_5410()


class TestDvfsModel:
    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError):
            DvfsModel(tmem_ms=-1.0, ndep_mcycles=10.0)
        with pytest.raises(ValueError):
            DvfsModel(tmem_ms=1.0, ndep_mcycles=-10.0)

    def test_rejects_nan_parameters(self):
        with pytest.raises(ValueError, match="tmem_ms"):
            DvfsModel(tmem_ms=float("nan"), ndep_mcycles=10.0)
        with pytest.raises(ValueError, match="ndep_mcycles"):
            DvfsModel(tmem_ms=1.0, ndep_mcycles=float("nan"))

    def test_latency_is_tmem_plus_cycles_over_frequency(self, system):
        model = DvfsModel(tmem_ms=10.0, ndep_mcycles=180.0)
        latency = model.latency_ms(system, AcmpConfig("A15", 1800))
        assert latency == pytest.approx(10.0 + 180.0 / 1.8)

    def test_latency_decreases_with_frequency(self, system):
        model = DvfsModel(tmem_ms=5.0, ndep_mcycles=500.0)
        latencies = [
            model.latency_ms(system, AcmpConfig("A15", f))
            for f in system.big_cluster.frequencies_mhz
        ]
        assert latencies == sorted(latencies, reverse=True)

    def test_little_cluster_is_slower_at_equal_nominal_frequency(self, system):
        model = DvfsModel(tmem_ms=0.0, ndep_mcycles=100.0)
        big = model.latency_ms(system, AcmpConfig("A15", 800))
        # 600 MHz little with perf_scale < 1 is slower than 800 MHz big.
        little = model.latency_ms(system, AcmpConfig("A7", 600))
        assert little > big

    def test_memory_time_is_frequency_invariant(self, system):
        model = DvfsModel(tmem_ms=50.0, ndep_mcycles=0.0)
        fast = model.latency_ms(system, AcmpConfig("A15", 1800))
        slow = model.latency_ms(system, AcmpConfig("A7", 350))
        assert fast == pytest.approx(slow) == pytest.approx(50.0)
