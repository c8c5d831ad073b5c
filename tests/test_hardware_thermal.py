"""Tests for the thermal throttling model (curves, dynamics, derivation)."""

from __future__ import annotations

import pytest

from repro.hardware.acmp import AcmpSystem, Cluster, ClusterKind
from repro.hardware.platforms import exynos_5410, tegra_parker
from repro.hardware.power import PowerModel
from repro.hardware.thermal import (
    NO_THROTTLE_MHZ,
    THERMAL_MODELS,
    ThermalModel,
    ThermalState,
    get_thermal_model,
    list_thermal_models,
)


@pytest.fixture
def curve_model() -> ThermalModel:
    return ThermalModel(
        name="t",
        curve=((0.0, NO_THROTTLE_MHZ), (50.0, 1_500), (70.0, 1_000)),
        ambient_c=25.0,
        time_constant_s=10.0,
        c_per_watt=10.0,
    )


class TestCurveValidation:
    def test_needs_a_point(self):
        with pytest.raises(ValueError, match="point"):
            ThermalModel(name="t", curve=())

    def test_needs_a_name(self):
        with pytest.raises(ValueError, match="name"):
            ThermalModel(name="", curve=((0.0, 1000),))

    def test_temperatures_strictly_ascending(self):
        with pytest.raises(ValueError, match="ascending"):
            ThermalModel(name="t", curve=((50.0, 1000), (50.0, 900)))
        with pytest.raises(ValueError, match="ascending"):
            ThermalModel(name="t", curve=((60.0, 1000), (50.0, 900)))

    def test_caps_non_increasing(self):
        with pytest.raises(ValueError, match="non-increasing"):
            ThermalModel(name="t", curve=((40.0, 900), (60.0, 1000)))

    def test_caps_positive(self):
        with pytest.raises(ValueError, match="positive"):
            ThermalModel(name="t", curve=((40.0, 0),))

    def test_dynamics_parameters_validated(self):
        with pytest.raises(ValueError, match="time_constant"):
            ThermalModel(name="t", curve=((0.0, 1000),), time_constant_s=0.0)
        with pytest.raises(ValueError, match="c_per_watt"):
            ThermalModel(name="t", curve=((0.0, 1000),), c_per_watt=-1.0)


class TestCurveLookup:
    def test_piecewise_constant_steps(self, curve_model):
        assert curve_model.cap_mhz(20.0) == NO_THROTTLE_MHZ
        assert curve_model.cap_mhz(50.0) == 1_500
        assert curve_model.cap_mhz(69.9) == 1_500
        assert curve_model.cap_mhz(70.0) == 1_000
        assert curve_model.cap_mhz(300.0) == 1_000

    def test_below_first_threshold_uses_first_cap(self):
        model = ThermalModel(name="t", curve=((40.0, 1_200),))
        assert model.cap_mhz(-10.0) == 1_200

    def test_monotone_non_increasing(self, curve_model):
        temps = [float(t) for t in range(0, 120, 3)]
        caps = [curve_model.cap_mhz(t) for t in temps]
        assert all(later <= earlier for earlier, later in zip(caps, caps[1:]))


class TestDynamics:
    def test_steady_state_is_linear_in_power(self, curve_model):
        assert curve_model.steady_state_c(0.0) == curve_model.ambient_c
        assert curve_model.steady_state_c(2.0) == 25.0 + 20.0

    def test_temperature_after_converges_to_steady_state(self, curve_model):
        target = curve_model.steady_state_c(3.0)
        assert curve_model.temperature_after(3.0, 1e6) == pytest.approx(target)

    def test_heat_up_is_monotone_and_bounded(self, curve_model):
        target = curve_model.steady_state_c(3.0)
        temps = [curve_model.temperature_after(3.0, t) for t in (0.0, 5.0, 10.0, 30.0, 100.0)]
        assert temps[0] == pytest.approx(curve_model.ambient_c)
        assert all(b > a for a, b in zip(temps, temps[1:]))
        assert all(t <= target for t in temps)

    def test_one_time_constant_covers_63_percent(self, curve_model):
        target = curve_model.steady_state_c(1.0)
        after_tau = curve_model.temperature_after(1.0, curve_model.time_constant_s)
        fraction = (after_tau - curve_model.ambient_c) / (target - curve_model.ambient_c)
        assert fraction == pytest.approx(0.6321, abs=1e-3)

    def test_cool_down_from_hot_start(self, curve_model):
        hot = 90.0
        cooled = curve_model.temperature_after(0.0, 30.0, start_c=hot)
        assert curve_model.ambient_c < cooled < hot

    def test_negative_dwell_rejected(self, curve_model):
        with pytest.raises(ValueError, match="dwell"):
            curve_model.temperature_after(1.0, -1.0)

    def test_thermal_state_tracks_and_caps(self, curve_model):
        state = ThermalState(model=curve_model)
        assert state.temperature_c == curve_model.ambient_c
        assert state.cap_mhz == NO_THROTTLE_MHZ
        for _ in range(50):
            state.advance(power_w=6.0, dt_s=5.0)  # steady state 85C
        assert state.temperature_c == pytest.approx(85.0, abs=0.5)
        assert state.cap_mhz == 1_000
        for _ in range(50):
            state.advance(power_w=0.0, dt_s=5.0)
        assert state.temperature_c == pytest.approx(25.0, abs=0.5)
        assert state.cap_mhz == NO_THROTTLE_MHZ


class TestConstrain:
    def test_constant_curve_equals_flat_cap_exactly(self):
        # The degenerate case the scenario matrix relies on: a constant
        # curve must reproduce with_frequency_cap results exactly.
        for system in (exynos_5410(), tegra_parker()):
            model = ThermalModel(name="flat", curve=((0.0, 1_100),))
            assert model.constrain(system) == system.with_frequency_cap(1_100)
            assert model.constrain(system, dwell_s=5.0) == system.with_frequency_cap(1_100)

    def test_builtin_constant_1100_matches_low_battery_cap(self):
        system = exynos_5410()
        model = get_thermal_model("constant_1100")
        assert model.constrain(system) == system.with_frequency_cap(1_100)

    def test_no_throttle_below_first_threshold(self):
        system = exynos_5410()
        mild = ThermalModel(name="mild", curve=((0.0, NO_THROTTLE_MHZ), (500.0, 600)))
        assert mild.constrain(system) is system

    def test_sustained_throttle_bites(self, curve_model):
        system = exynos_5410()
        throttled = curve_model.constrain(system)
        # Big cluster at 1.8 GHz draws ~3.45 W -> ~59.5C steady -> cap 1500.
        assert throttled.big_cluster.max_frequency_mhz == 1_500
        assert throttled.big_cluster.design_max_frequency_mhz == 1_800

    def test_short_dwell_throttles_less_than_steady_state(self, curve_model):
        system = exynos_5410()
        steady = curve_model.constrain(system)
        burst = curve_model.constrain(system, dwell_s=2.0)
        assert burst is system
        assert steady.big_cluster.max_frequency_mhz < system.big_cluster.max_frequency_mhz

    def test_fixed_point_is_idempotent(self):
        system = exynos_5410()
        model = get_thermal_model("cramped_chassis")
        once = model.constrain(system)
        twice = model.constrain(once)
        assert twice == once

    def test_collapsed_ladder_terminates(self):
        # A curve whose cap sits below the big cluster's minimum frequency
        # must settle on the collapsed one-rung ladder, not loop.
        system = AcmpSystem(
            name="hotbox",
            clusters=(
                Cluster("B", ClusterKind.BIG, 2, (800, 1200)),
                Cluster("L", ClusterKind.LITTLE, 2, (300, 500), perf_scale=0.5),
            ),
        )
        model = ThermalModel(name="harsh", curve=((0.0, 400),))
        throttled = model.constrain(system)
        assert throttled.big_cluster.frequencies_mhz == (800,)
        assert throttled.little_cluster.frequencies_mhz == (300,)
        assert model.constrain(throttled) == throttled

    def test_custom_power_model_is_honoured(self, curve_model):
        system = exynos_5410()
        # A power model that reports ~0 W never crosses the first threshold.
        cold = PowerModel(
            cluster_params={
                kind: type(params)(static_w=0.0, dynamic_coeff_w=1e-6, exponent=params.exponent, idle_w=0.0)
                for kind, params in PowerModel().cluster_params.items()
            }
        )
        assert curve_model.constrain(system, power_model=cold) is system


class TestRegistry:
    def test_list_matches_registry(self):
        assert list_thermal_models() == sorted(THERMAL_MODELS)
        assert {"constant_1100", "passive_phone", "cramped_chassis"} <= set(THERMAL_MODELS)

    def test_names_match_keys(self):
        for name, model in THERMAL_MODELS.items():
            assert model.name == name

    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(KeyError, match="available"):
            get_thermal_model("liquid_nitrogen")
