"""Property-based tests (hypothesis) for scenario specs, matrices, and thermal curves.

Pins three families of invariants the sweep subsystem rests on:

* serialisation — a ``ScenarioSpec`` survives a real
  ``json.dumps``/``json.loads`` round trip losslessly for *arbitrary*
  valid values, not just the built-in library,
* expansion — a matrix always expands to exactly its axis product, with
  unique cell names,
* thermal curves — the throttle cap is monotonically non-increasing in
  temperature, and a constant curve is exactly the flat frequency cap.
"""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from repro.core.pes import PesConfig
from repro.hardware.platforms import exynos_5410, list_platforms, tegra_parker
from repro.hardware.thermal import ThermalModel, list_thermal_models
from repro.runtime.simulator import KNOWN_SCHEMES
from repro.scenarios import APP_MIXES, PlatformSweep, ScenarioMatrix, ScenarioSpec
from repro.traces.presets import SESSION_REGIMES

# -- strategies ---------------------------------------------------------------------

names = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N"), whitelist_characters="_-/."),
    min_size=1,
    max_size=24,
)

apps = st.one_of(
    st.sampled_from(sorted(APP_MIXES)),
    st.lists(st.sampled_from(sorted(APP_MIXES["all"])), min_size=1, unique=True).map(tuple),
)

schemes = st.lists(st.sampled_from(KNOWN_SCHEMES), min_size=1, unique=True).map(tuple)

pes_configs = st.one_of(
    st.none(),
    st.builds(
        PesConfig,
        confidence_threshold=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
        max_prediction_degree=st.integers(min_value=1, max_value=24),
        disable_after_mispredictions=st.integers(min_value=1, max_value=10),
        use_dom_analysis=st.booleans(),
        arrival_conservatism=st.floats(min_value=0.1, max_value=1.0, allow_nan=False),
    ),
)

core_counts = st.one_of(st.none(), st.integers(min_value=1, max_value=16))
perf_scales = st.one_of(
    st.none(), st.floats(min_value=0.05, max_value=1.0, allow_nan=False)
)
thermals = st.one_of(st.none(), st.sampled_from(list_thermal_models()))

specs = st.builds(
    ScenarioSpec,
    name=names,
    platform=st.sampled_from(list_platforms()),
    regime=st.sampled_from(sorted(SESSION_REGIMES)),
    apps=apps,
    schemes=schemes,
    traces_per_app=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    pes=pes_configs,
    big_cores=core_counts,
    little_cores=core_counts,
    perf_scale=perf_scales,
    thermal=thermals,
)


def _axis(values, max_size=3):
    return st.lists(values, min_size=1, max_size=max_size, unique=True).map(tuple)


platform_sweeps = st.builds(
    PlatformSweep,
    platforms=_axis(st.sampled_from(list_platforms()), max_size=2),
    big_core_counts=_axis(core_counts),
    little_core_counts=_axis(core_counts),
    perf_scales=_axis(perf_scales),
    thermal_models=_axis(thermals),
)

matrices = st.builds(
    ScenarioMatrix,
    name=names,
    regimes=_axis(st.sampled_from(sorted(SESSION_REGIMES))),
    app_mixes=_axis(st.sampled_from(sorted(APP_MIXES))),
    schemes=schemes,
    # unique_by=repr: the matrix rejects duplicate axis entries (by ==),
    # and repr-distinct PesConfigs are value-distinct.
    pes_configs=st.lists(pes_configs, min_size=1, max_size=2, unique_by=repr).map(tuple),
    platform_sweep=st.one_of(st.none(), platform_sweeps),
    traces_per_app=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)

thermal_curves = st.builds(
    lambda temps, caps, tau, cpw: ThermalModel(
        name="prop",
        curve=tuple(zip(sorted(temps), sorted(caps, reverse=True))),
        time_constant_s=tau,
        c_per_watt=cpw,
    ),
    temps=st.lists(
        st.floats(min_value=-20.0, max_value=150.0, allow_nan=False),
        min_size=1,
        max_size=5,
        unique=True,
    ),
    caps=st.lists(st.integers(min_value=100, max_value=2_000_000), min_size=5, max_size=5),
    tau=st.floats(min_value=1.0, max_value=300.0, allow_nan=False),
    cpw=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
)


# -- properties ---------------------------------------------------------------------


class TestSerialisationProperties:
    @given(spec=specs)
    @settings(max_examples=80, deadline=None)
    def test_spec_json_round_trip_is_lossless(self, spec):
        payload = json.loads(json.dumps(spec.to_dict()))
        assert ScenarioSpec.from_dict(payload) == spec


class TestExpansionProperties:
    @given(matrix=matrices)
    @settings(max_examples=40, deadline=None)
    def test_cell_count_always_equals_axis_product(self, matrix):
        expanded = matrix.expand()
        n_platforms = (
            len(matrix.platform_sweep.variants())
            if matrix.platform_sweep is not None
            else len(matrix.platforms or ("exynos5410",))
        )
        assert len(expanded) == matrix.n_cells
        assert matrix.n_cells == (
            n_platforms
            * len(matrix.regimes)
            * len(matrix.app_mixes)
            * len(matrix.pes_configs)
        )

    @given(matrix=matrices)
    @settings(max_examples=40, deadline=None)
    def test_cell_names_are_unique_and_specs_valid(self, matrix):
        expanded = matrix.expand()
        assert len({spec.name for spec in expanded}) == len(expanded)
        for spec in expanded:
            assert spec.schemes == matrix.schemes
            assert spec.seed == matrix.seed


class TestThermalProperties:
    @given(model=thermal_curves, temps=st.lists(st.floats(-50, 250, allow_nan=False), min_size=2, max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_cap_monotone_non_increasing_in_temperature(self, model, temps):
        ordered = sorted(temps)
        caps = [model.cap_mhz(t) for t in ordered]
        assert all(later <= earlier for earlier, later in zip(caps, caps[1:]))

    @given(
        cap=st.integers(min_value=100, max_value=3_000),
        threshold=st.floats(min_value=-20.0, max_value=150.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_constant_curve_equals_flat_cap(self, cap, threshold):
        model = ThermalModel(name="flat", curve=((threshold, cap),))
        for system in (exynos_5410(), tegra_parker()):
            assert model.constrain(system) == system.with_frequency_cap(cap)

    @given(
        model=thermal_curves,
        power=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        dwells=st.lists(st.floats(min_value=0.0, max_value=5_000.0), min_size=2, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_heat_up_monotone_in_dwell_and_bounded_by_steady_state(
        self, model, power, dwells
    ):
        target = model.steady_state_c(power)
        temps = [model.temperature_after(power, d) for d in sorted(dwells)]
        assert all(b >= a - 1e-9 for a, b in zip(temps, temps[1:]))
        for temperature in temps:
            assert model.ambient_c - 1e-9 <= temperature <= target + 1e-9
