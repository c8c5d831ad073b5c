"""Unit tests for the DVFS latency model (Eqn. 1)."""

import pytest

from repro.hardware.acmp import AcmpConfig
from repro.hardware.dvfs import DvfsModel, calibrate_two_point
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

    def test_scaled_multiplies_both_components(self):
        model = DvfsModel(tmem_ms=10.0, ndep_mcycles=100.0)
        doubled = model.scaled(2.0)
        assert doubled.tmem_ms == pytest.approx(20.0)
        assert doubled.ndep_mcycles == pytest.approx(200.0)

    def test_scaled_rejects_negative_factor(self):
        with pytest.raises(ValueError):
            DvfsModel(1.0, 1.0).scaled(-1.0)

    def test_latency_at_ghz_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DvfsModel(1.0, 1.0).latency_at_ghz(0.0)


class TestCalibration:
    def test_recovers_exact_parameters(self):
        truth = DvfsModel(tmem_ms=25.0, ndep_mcycles=400.0)
        la = truth.latency_at_ghz(1.8)
        lb = truth.latency_at_ghz(0.8)
        fitted = calibrate_two_point(la, 1.8, lb, 0.8)
        assert fitted.tmem_ms == pytest.approx(truth.tmem_ms)
        assert fitted.ndep_mcycles == pytest.approx(truth.ndep_mcycles)

    def test_clamps_noise_induced_negatives(self):
        # Latencies nearly equal at very different frequencies imply Ndep ~ 0;
        # noise can push the solution slightly negative and it must be clamped.
        fitted = calibrate_two_point(10.0, 1.8, 10.001, 0.6)
        assert fitted.ndep_mcycles >= 0.0
        assert fitted.tmem_ms >= 0.0

    def test_requires_distinct_frequencies(self):
        with pytest.raises(ValueError):
            calibrate_two_point(10.0, 1.0, 12.0, 1.0)

    def test_requires_positive_frequencies(self):
        with pytest.raises(ValueError):
            calibrate_two_point(10.0, -1.0, 12.0, 1.0)
