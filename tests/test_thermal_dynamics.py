"""Tests for per-event thermal dynamics threaded through the engines.

Four families:

* **Exactness anchors** — ``thermal_mode="dynamic"`` with a *constant*
  curve must reproduce the legacy flat-cap (statically throttled) results
  bit-for-bit on every scheme, because a constant curve's instantaneous cap
  never moves; and a dynamic run without any curve must be byte-identical
  to no thermal handling at all.
* **Property tests** (hypothesis) — for arbitrary power/duration profiles
  the live tracker keeps throttle residency in [0, 1] and peak temperature
  at or above ambient.
* **Jobs independence** — a dynamic-thermal matrix aggregates identically
  for any worker count (the thermal state lives inside each session replay,
  which is itself deterministic).
* **Physics asymmetry** — the cramped-chassis curve engages on sustained
  ~50%-duty flash-crowd bursts but not on low-duty marathons.  Note this is
  the *opposite* of the static per-scenario collapse (which assumed
  flat-out execution for the whole session and therefore throttled
  marathons hardest): live dynamics follow the actual power profile, and
  bursts are what heat the package.

Plus fail-before regressions for the ``ScenarioRunner.train_learner``
cache-staleness bug and serialisation coverage for ``thermal_mode``.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.platforms import exynos_5410
from repro.hardware.thermal import get_thermal_model
from repro.runtime.engine import _SessionThermal
from repro.runtime.simulator import KNOWN_SCHEMES, SimulationSetup, Simulator
from repro.scenarios import (
    ScenarioMatrix,
    ScenarioRunner,
    ScenarioSpec,
    load_results,
    results_to_payload,
    write_results,
)

CAP_MHZ = 1_100


def _strip_thermal(result):
    """A session result with its thermal telemetry removed, for equality."""
    return dataclasses.replace(result, thermal=None)


@pytest.fixture(scope="module")
def flat_cap_simulator(catalog):
    """The legacy path: the platform statically capped, no thermal model."""
    return Simulator(
        setup=SimulationSetup(system=exynos_5410().with_frequency_cap(CAP_MHZ)),
        catalog=catalog,
    )


@pytest.fixture(scope="module")
def dynamic_constant_simulator(catalog):
    """The new path: uncapped platform, constant curve applied per event."""
    return Simulator(
        setup=SimulationSetup(
            system=exynos_5410(), thermal=get_thermal_model("constant_1100")
        ),
        catalog=catalog,
    )


class TestConstantCurveExactness:
    """dynamic + constant curve ≡ static ≡ legacy flat cap, per scheme."""

    @pytest.mark.parametrize("scheme", KNOWN_SCHEMES)
    def test_every_scheme_bit_identical_to_flat_cap(
        self, scheme, flat_cap_simulator, dynamic_constant_simulator, small_trace, learner
    ):
        expected = flat_cap_simulator.run_scheme([small_trace], scheme, learner=learner)
        actual = dynamic_constant_simulator.run_scheme([small_trace], scheme, learner=learner)
        assert [_strip_thermal(r) for r in actual] == expected

    def test_dynamic_run_carries_thermal_stats_flat_cap_does_not(
        self, flat_cap_simulator, dynamic_constant_simulator, small_trace
    ):
        (legacy,) = flat_cap_simulator.run_scheme([small_trace], "EBS")
        (dynamic,) = dynamic_constant_simulator.run_scheme([small_trace], "EBS")
        assert legacy.thermal is None
        assert dynamic.thermal is not None
        # A constant cap below the ladder top means the cap is engaged for
        # (essentially) the whole session and every event is throttle-planned.
        assert dynamic.thermal.unthrottled_events == 0
        assert dynamic.thermal.throttle_residency > 0.99
        assert dynamic.thermal.throttle_slowdown == 0.0

    def test_static_spec_mode_equals_dynamic_spec_mode_with_constant_curve(self, catalog):
        runner = ScenarioRunner(catalog=catalog)
        kwargs = dict(
            regime="flash_crowd",
            apps=("google",),
            schemes=("Interactive", "EBS"),
            thermal="constant_1100",
        )
        static_spec = ScenarioSpec(name="s", thermal_mode="static", **kwargs)
        dynamic_spec = ScenarioSpec(name="d", thermal_mode="dynamic", **kwargs)
        static_result, dynamic_result = runner.run([static_spec, dynamic_spec])
        for scheme in kwargs["schemes"]:
            assert (
                dynamic_result.aggregates[scheme].overall
                == static_result.aggregates[scheme].overall
            )
            assert (
                dynamic_result.aggregates[scheme].per_app
                == static_result.aggregates[scheme].per_app
            )

    def test_dynamic_mode_without_curve_is_the_identity(self, catalog, small_trace):
        plain = Simulator(setup=SimulationSetup(), catalog=catalog)
        spec = ScenarioSpec(name="x", thermal=None, thermal_mode="dynamic")
        assert spec.dynamic_thermal_model() is None
        (expected,) = plain.run_scheme([small_trace], "EBS")
        dynamic = Simulator(
            setup=SimulationSetup(system=exynos_5410(), thermal=None), catalog=catalog
        )
        (actual,) = dynamic.run_scheme([small_trace], "EBS")
        assert actual == expected
        assert actual.thermal is None


class TestCapFilteredEnumeration:
    """Enumerating ``capped_system(system, cap)`` ≡ enumerating the flat-capped platform."""

    def test_cap_filter_matches_capped_system_enumeration(self, setup, small_trace):
        from repro.schedulers.base import capped_system, enumerate_options

        workload = small_trace.events[0].workload
        for cap in (600, 1_100, 1_500):
            capped = enumerate_options(
                capped_system(setup.system, cap), setup.power_table, workload, pareto_only=True
            )
            flat = enumerate_options(
                setup.system.with_frequency_cap(cap), setup.power_table, workload, pareto_only=True
            )
            assert capped == flat
            # with_frequency_cap keeps a cluster's minimum rung when its
            # whole ladder sits above the cap (so it stays schedulable).
            minimums = {c.name: c.min_frequency_mhz for c in setup.system.clusters}
            assert all(
                o.config.frequency_mhz <= cap
                or o.config.frequency_mhz == minimums[o.config.cluster_name]
                for o in capped
            )

    def test_cap_above_the_ladder_is_a_no_op(self, setup, small_trace):
        from repro.schedulers.base import capped_system, enumerate_options

        workload = small_trace.events[0].workload
        top = max(c.max_frequency_mhz for c in setup.system.clusters)
        assert capped_system(setup.system, top) is setup.system
        assert enumerate_options(
            capped_system(setup.system, top), setup.power_table, workload
        ) == enumerate_options(setup.system, setup.power_table, workload)


# -- property tests -----------------------------------------------------------------

segments = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=6.0, allow_nan=False),  # watts
        st.floats(min_value=0.001, max_value=120_000.0, allow_nan=False),  # ms
        st.booleans(),  # active interval (vs idle gap)
    ),
    min_size=1,
    max_size=40,
)


class TestTrackerProperties:
    @given(profile=segments, curve=st.sampled_from(["passive_phone", "cramped_chassis"]))
    @settings(max_examples=60, deadline=None)
    def test_residency_in_unit_interval_and_peak_at_least_ambient(self, profile, curve):
        model = get_thermal_model(curve)
        setup = SimulationSetup(system=exynos_5410(), thermal=model)
        tracker = _SessionThermal(setup)
        clock = 0.0
        for power_w, duration_ms, active in profile:
            if active:
                tracker.active(clock, clock + duration_ms, power_w)
            else:
                tracker.idle_to(clock + duration_ms)
            clock += duration_ms
        stats = tracker.finalize(duration_ms=clock)
        assert 0.0 <= stats.throttle_residency <= 1.0
        assert stats.peak_temperature_c >= model.ambient_c
        assert stats.throttled_ms <= clock + 1e-9
        # The cap can never exceed the curve's coolest allowance nor drop
        # below its deepest throttle step.
        caps = [cap for _, cap in model.curve]
        assert min(caps) <= tracker.state.cap_mhz <= max(caps)

    @given(
        power_w=st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
        dwell_ms=st.floats(min_value=1.0, max_value=600_000.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_peak_is_bounded_by_the_hotter_of_start_and_steady_state(self, power_w, dwell_ms):
        model = get_thermal_model("cramped_chassis")
        setup = SimulationSetup(system=exynos_5410(), thermal=model)
        tracker = _SessionThermal(setup)
        tracker.active(0.0, dwell_ms, power_w)
        ceiling = max(model.ambient_c, model.steady_state_c(power_w))
        assert tracker.peak_c <= ceiling + 1e-9


class TestJobsIndependence:
    def test_dynamic_thermal_matrix_identical_for_any_worker_count(self, catalog):
        spec = ScenarioSpec(
            name="jobs",
            regime="flash_crowd",
            apps=("google",),
            schemes=("Interactive", "EBS"),
            thermal="cramped_chassis",
            thermal_mode="dynamic",
        )
        serial = ScenarioRunner(catalog=catalog, jobs=1).run([spec])
        parallel = ScenarioRunner(catalog=catalog, jobs=4).run([spec])
        # Payload equality covers every aggregate float and the thermal
        # block; it is exactly what a written artefact would contain.
        assert results_to_payload(serial) == results_to_payload(parallel)


class TestThrottleAsymmetry:
    """Bursts heat the package; low-duty marathons never cross a threshold."""

    @pytest.fixture(scope="class")
    def runner(self, catalog):
        return ScenarioRunner(catalog=catalog)

    def _thermal(self, runner, regime, curve):
        spec = ScenarioSpec(
            name=f"{regime}-{curve}",
            regime=regime,
            apps=("cnn",),
            schemes=("Interactive",),
            thermal=curve,
            thermal_mode="dynamic",
        )
        (result,) = runner.run([spec])
        thermal = result.aggregates["Interactive"].thermal
        assert thermal is not None
        return thermal

    def test_cramped_chassis_throttles_flash_crowd(self, runner):
        thermal = self._thermal(runner, "flash_crowd", "cramped_chassis")
        assert thermal.throttle_residency > 0.0
        assert thermal.peak_temperature_c > 45.0  # crossed the first step

    def test_cramped_chassis_spares_the_marathon(self, runner):
        thermal = self._thermal(runner, "marathon", "cramped_chassis")
        assert thermal.throttle_residency == 0.0
        assert thermal.peak_temperature_c >= 25.0

    def test_passive_phone_spares_both(self, runner):
        for regime in ("flash_crowd", "marathon"):
            thermal = self._thermal(runner, regime, "passive_phone")
            assert thermal.throttle_residency == 0.0


class TestTrainLearnerCache:
    """Regression: the learner cache must key on its actual inputs."""

    def test_mutating_train_seed_retrains(self, catalog):
        runner = ScenarioRunner(catalog=catalog, train_traces_per_app=1, train_seed=0)
        first = runner.train_learner()
        assert runner.train_learner() is first  # unchanged inputs hit the cache
        runner.train_seed = 424_242
        retrained = runner.train_learner()
        assert retrained is not first
        assert retrained != first  # different traces → different weights
        runner.train_seed = 0
        assert runner.train_learner() is first  # the original key is still warm

    def test_mutating_traces_per_app_retrains(self, catalog):
        runner = ScenarioRunner(catalog=catalog, train_traces_per_app=1, train_seed=0)
        first = runner.train_learner()
        runner.train_traces_per_app = 2
        assert runner.train_learner() is not first


class TestThermalModeSerialisation:
    def test_static_spec_omits_the_key_for_byte_stable_artefacts(self):
        payload = ScenarioSpec(name="x").to_dict()
        assert "thermal_mode" not in payload

    def test_dynamic_spec_round_trips(self):
        spec = ScenarioSpec(
            name="x", thermal="passive_phone", thermal_mode="dynamic"
        )
        payload = json.loads(json.dumps(spec.to_dict()))
        assert payload["thermal_mode"] == "dynamic"
        assert ScenarioSpec.from_dict(payload) == spec

    def test_legacy_payload_defaults_to_static(self):
        payload = ScenarioSpec(name="x", thermal="passive_phone").to_dict()
        payload.pop("thermal_mode", None)
        assert ScenarioSpec.from_dict(payload).thermal_mode == "static"

    def test_dynamic_matrix_expands_dynamic_specs(self):
        matrix = ScenarioMatrix(
            name="m",
            regimes=("flash_crowd",),
            thermal_mode="dynamic",
        )
        assert all(spec.thermal_mode == "dynamic" for spec in matrix.expand())

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="thermal_mode"):
            ScenarioSpec(name="x", thermal_mode="adaptive")
        with pytest.raises(ValueError, match="thermal_mode"):
            ScenarioMatrix(name="m", thermal_mode="adaptive")


class TestArtefactThermalBlock:
    def test_dynamic_results_round_trip_through_json(self, catalog, tmp_path):
        spec = ScenarioSpec(
            name="artefact",
            regime="flash_crowd",
            apps=("google",),
            schemes=("Interactive",),
            thermal="cramped_chassis",
            thermal_mode="dynamic",
        )
        results = ScenarioRunner(catalog=catalog).run([spec])
        path = write_results(results, tmp_path / "SCENARIOS_thermal.json", matrix="t")
        payload, restored = load_results(path)
        assert payload["jobs"] is None
        cell = payload["scenarios"][0]["schemes"]["Interactive"]
        assert "thermal" in cell
        assert 0.0 <= cell["thermal"]["throttle_residency"] <= 1.0
        assert restored[0].aggregates == results[0].aggregates
        assert restored[0].spec == spec
