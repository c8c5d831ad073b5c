"""Tests for the named session regimes (scenario presets)."""

from __future__ import annotations

import pytest

from repro.hardware.platforms import exynos_5410
from repro.traces.generator import TraceGenerator
from repro.traces.presets import (
    SESSION_REGIMES,
    SessionRegime,
    get_regime,
    scaled_workloads,
)
from repro.traces.workload import INTERACTION_WORKLOADS
from repro.webapp.events import Interaction


class TestRegistry:
    def test_expected_regimes_present(self):
        assert {
            "default",
            "flash_crowd",
            "background_idle",
            "low_battery",
            "marathon",
            "network_limited",
            "fg_bg_switching",
        } <= set(SESSION_REGIMES)

    def test_get_regime_unknown_raises(self):
        with pytest.raises(KeyError, match="regime"):
            get_regime("turbo")

    def test_names_match_keys(self):
        for key, regime in SESSION_REGIMES.items():
            assert regime.name == key


class TestScaledWorkloads:
    def test_scales_medians_only(self):
        scaled = scaled_workloads(2.0)
        for interaction, params in INTERACTION_WORKLOADS.items():
            assert scaled[interaction].ndep_median_mcycles == params.ndep_median_mcycles * 2.0
            assert scaled[interaction].tmem_median_ms == params.tmem_median_ms * 2.0
            assert scaled[interaction].heavy_ndep_mcycles == params.heavy_ndep_mcycles * 2.0
            assert scaled[interaction].ndep_sigma == params.ndep_sigma
            assert scaled[interaction].tmem_sigma == params.tmem_sigma

    def test_rejects_non_positive_scale(self):
        with pytest.raises(ValueError):
            scaled_workloads(0.0)
        with pytest.raises(ValueError):
            scaled_workloads(1.0, tmem_scale=0.0)

    def test_tmem_scale_decouples_network_time_from_compute(self):
        scaled = scaled_workloads(1.0, tmem_scale=3.0)
        for interaction, params in INTERACTION_WORKLOADS.items():
            assert scaled[interaction].ndep_median_mcycles == params.ndep_median_mcycles
            assert scaled[interaction].heavy_ndep_mcycles == params.heavy_ndep_mcycles
            assert scaled[interaction].tmem_median_ms == params.tmem_median_ms * 3.0


class TestRegimeValidation:
    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            SessionRegime(name="x", session=SESSION_REGIMES["default"].session, frequency_cap_mhz=0)

    def test_constrain_applies_cap(self):
        regime = get_regime("low_battery")
        system = regime.constrain(exynos_5410())
        assert all(c.max_frequency_mhz <= regime.frequency_cap_mhz for c in system.clusters)

    def test_constrain_without_cap_is_identity(self):
        system = exynos_5410()
        assert get_regime("default").constrain(system) is system


class TestRegimeShapes:
    """The regimes must produce qualitatively different sessions."""

    @staticmethod
    def _trace(regime_name, catalog, app="cnn", seed=1234):
        regime = get_regime(regime_name)
        generator = TraceGenerator(
            catalog=catalog,
            session=regime.session,
            workload_params=regime.workload_params,
        )
        return generator.generate(app, seed=seed)

    def test_background_idle_is_sparse(self, catalog):
        idle = self._trace("background_idle", catalog)
        default = self._trace("default", catalog)
        assert len(idle) < len(default)
        idle_gap = idle.events[-1].arrival_ms / max(len(idle) - 1, 1)
        default_gap = default.events[-1].arrival_ms / max(len(default) - 1, 1)
        assert idle_gap > default_gap

    def test_flash_crowd_is_dense(self, catalog):
        crowd = self._trace("flash_crowd", catalog)
        default = self._trace("default", catalog)
        crowd_gap = crowd.events[-1].arrival_ms / max(len(crowd) - 1, 1)
        default_gap = default.events[-1].arrival_ms / max(len(default) - 1, 1)
        assert crowd_gap < default_gap

    def test_marathon_is_long(self, catalog):
        marathon = self._trace("marathon", catalog)
        default = self._trace("default", catalog)
        assert marathon.events[-1].arrival_ms > default.events[-1].arrival_ms
        assert len(marathon) >= 40

    def test_network_limited_shifts_latency_to_tmem(self, catalog):
        """Under the congested-link regime the frequency-invariant Tmem share
        of a load's latency must dominate compared to the default regime."""
        limited = self._trace("network_limited", catalog)
        default = self._trace("default", catalog)

        def tmem_share(trace):
            loads = [e.workload for e in trace if e.workload.tmem_ms > 0]
            return sum(w.tmem_ms for w in loads) / max(
                sum(w.tmem_ms + w.ndep_mcycles for w in loads), 1e-9
            )

        assert tmem_share(limited) > tmem_share(default)

    def test_fg_bg_switching_is_bursty(self, catalog):
        """Foreground/background switching: the gap distribution must be far
        more dispersed than the default regime's (bursts + long lulls)."""
        switching = self._trace("fg_bg_switching", catalog)
        default = self._trace("default", catalog)

        def gap_dispersion(trace):
            arrivals = [e.arrival_ms for e in trace]
            gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
            mean = sum(gaps) / len(gaps)
            return max(gaps) / mean

        assert gap_dispersion(switching) > gap_dispersion(default)

    def test_workload_params_reach_sampled_events(self, catalog):
        """Generator-level override: doubling the medians must shift the
        sampled per-event work for the same seed."""
        base = TraceGenerator(catalog=catalog).generate("cnn", seed=9)
        heavy = TraceGenerator(
            catalog=catalog, workload_params=scaled_workloads(2.0)
        ).generate("cnn", seed=9)
        assert sum(e.workload.ndep_mcycles for e in heavy) > sum(
            e.workload.ndep_mcycles for e in base
        )
