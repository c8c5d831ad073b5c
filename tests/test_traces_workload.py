"""Unit tests for the per-event workload model."""

import numpy as np
import pytest

from repro.hardware.platforms import exynos_5410
from repro.traces.workload import INTERACTION_WORKLOADS, WorkloadModel, WorkloadParams
from repro.webapp.apps import AppCatalog
from repro.webapp.events import EventType, Interaction, qos_target_ms


@pytest.fixture(scope="module")
def catalog():
    return AppCatalog()


@pytest.fixture
def cnn_model(catalog):
    return WorkloadModel(catalog.get("cnn"))


class TestWorkloadParams:
    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            WorkloadParams(-1.0, 0.1, 1.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            WorkloadParams(1.0, -0.1, 1.0, 0.1, 1.0)

    @pytest.mark.parametrize(
        "field", ["ndep_median_mcycles", "ndep_sigma", "tmem_median_ms", "tmem_sigma", "heavy_ndep_mcycles"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_nan_and_infinite_values_naming_the_field(self, field, value):
        # A NaN median and an infinite sigma were both accepted.
        values = dict(
            ndep_median_mcycles=1.0, ndep_sigma=0.1, tmem_median_ms=1.0, tmem_sigma=0.1, heavy_ndep_mcycles=1.0
        )
        values[field] = value
        with pytest.raises(ValueError, match=f"WorkloadParams.{field}"):
            WorkloadParams(**values)

    def test_defaults_cover_all_interactions(self):
        assert set(INTERACTION_WORKLOADS) == set(Interaction)

    def test_heavy_median_exceeds_normal_median(self):
        for params in INTERACTION_WORKLOADS.values():
            assert params.heavy_ndep_mcycles > params.ndep_median_mcycles


class TestSampling:
    def test_sampling_is_deterministic_per_seed(self, cnn_model):
        a = cnn_model.sample(EventType.CLICK, np.random.default_rng(7))
        b = cnn_model.sample(EventType.CLICK, np.random.default_rng(7))
        assert a.ndep_mcycles == pytest.approx(b.ndep_mcycles)
        assert a.tmem_ms == pytest.approx(b.tmem_ms)

    def test_loads_heavier_than_taps_heavier_than_moves(self, cnn_model):
        rng = np.random.default_rng(3)
        loads = [cnn_model.sample(EventType.LOAD, rng).ndep_mcycles for _ in range(50)]
        taps = [cnn_model.sample(EventType.CLICK, rng).ndep_mcycles for _ in range(50)]
        moves = [cnn_model.sample(EventType.SCROLL, rng).ndep_mcycles for _ in range(50)]
        assert np.median(loads) > np.median(taps) > np.median(moves)

    def test_typical_tap_meets_qos_at_max_performance(self, catalog):
        """The median (non-heavy) workload of every interaction fits within
        its QoS target on the fastest configuration — Type I events are the
        exception, not the rule."""
        system = exynos_5410()
        for app in catalog.profiles.values():
            model = WorkloadModel(app)
            for event_type in (EventType.LOAD, EventType.CLICK, EventType.SCROLL):
                latency = model.typical(event_type).latency_ms(system, system.max_performance_config)
                assert latency < qos_target_ms(event_type)

    def test_heavy_tail_produces_type_i_candidates(self, catalog):
        """With enough samples, some taps exceed the QoS target even at the
        maximum-performance configuration (the paper's Type I events)."""
        system = exynos_5410()
        model = WorkloadModel(catalog.get("cnn"))
        rng = np.random.default_rng(11)
        latencies = [
            model.sample(EventType.CLICK, rng).latency_ms(system, system.max_performance_config)
            for _ in range(400)
        ]
        over = sum(1 for lat in latencies if lat > qos_target_ms(EventType.CLICK))
        assert 0 < over < len(latencies) * 0.5

    def test_workload_scale_shifts_magnitudes(self, catalog):
        heavy_app = WorkloadModel(catalog.get("cnn"))      # workload_scale 1.30
        light_app = WorkloadModel(catalog.get("sina"))     # workload_scale 0.70
        assert (
            heavy_app.typical(EventType.CLICK).ndep_mcycles
            > light_app.typical(EventType.CLICK).ndep_mcycles
        )

    def test_heavy_probability_by_interaction(self, cnn_model):
        assert cnn_model.heavy_probability(EventType.CLICK) == pytest.approx(0.14)
        assert cnn_model.heavy_probability(EventType.SCROLL) < cnn_model.heavy_probability(EventType.CLICK)
