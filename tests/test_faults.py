"""Functional tests for the fault-injection subsystem (``repro.faults``).

Four pillars:

* **Spec layer** — validation at construction, lossless JSON round trips,
  preset registry, and the ``is_null`` semantics the identity invariant
  rests on.
* **Identity invariant** — a zero-rate spec produces bit-identical
  :class:`SessionResult` objects to no spec at all, on every scheme,
  including under dynamic thermal state.
* **Injection seams** — each fault family actually injects through its
  engine seam (predictor flips through real misprediction recovery, DVFS
  holds the prior configuration, the sensor corrupts the governor's cap,
  the event stream is transformed into a still-valid trace) and the
  ledger obeys ``recovered <= injected``.
* **Scenario integration** — the fault axis expands/serialises like every
  other matrix axis, aggregates flow into artefacts and the reporting
  table, and ``ScenarioResult`` round-trips fault blocks losslessly.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.reporting import scenario_faults_table
from repro.faults import (
    BatteryFaults,
    BurstModel,
    DvfsFaults,
    EventStreamFaults,
    FAULT_PRESETS,
    FaultSpec,
    PredictorFaults,
    SensorFaults,
    get_fault_preset,
    list_fault_presets,
)
from repro.faults.injector import SessionFaultState
from repro.hardware.thermal import get_thermal_model
from repro.runtime.engine import _Replay
from repro.runtime.metrics import FaultAggregate, FaultSessionStats
from repro.runtime.simulator import KNOWN_SCHEMES, SimulationSetup, Simulator
from repro.scenarios import ScenarioMatrix, ScenarioResult, ScenarioRunner, ScenarioSpec


# -- spec layer ---------------------------------------------------------------------


class TestFaultSpec:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError, match="flip_rate"):
            PredictorFaults(flip_rate=1.5)
        with pytest.raises(ValueError, match="fail_rate"):
            DvfsFaults(fail_rate=-0.1)
        with pytest.raises(ValueError, match="drop_rate"):
            EventStreamFaults(drop_rate=2.0)
        with pytest.raises(ValueError, match="stuck_rate"):
            SensorFaults(stuck_rate=1.01)

    def test_magnitudes_must_be_non_negative(self):
        with pytest.raises(ValueError, match="lag_readings"):
            SensorFaults(lag_readings=-1)
        with pytest.raises(ValueError, match="noise_c"):
            SensorFaults(noise_c=-0.5)
        with pytest.raises(ValueError, match="jitter_ms"):
            EventStreamFaults(jitter_ms=-1.0)

    def test_spec_needs_a_name(self):
        with pytest.raises(ValueError, match="name"):
            FaultSpec(name="")

    def test_default_spec_is_null(self):
        assert FaultSpec().is_null

    def test_jitter_needs_rate_and_magnitude(self):
        # A rate with no magnitude (or vice versa) can never move an arrival.
        assert EventStreamFaults(jitter_rate=0.5, jitter_ms=0.0).is_null
        assert EventStreamFaults(jitter_rate=0.0, jitter_ms=40.0).is_null
        assert not EventStreamFaults(jitter_rate=0.5, jitter_ms=40.0).is_null

    @pytest.mark.parametrize("name", sorted(FAULT_PRESETS))
    def test_presets_round_trip_through_json(self, name):
        spec = get_fault_preset(name)
        assert not spec.is_null
        payload = json.loads(json.dumps(spec.to_dict()))
        assert FaultSpec.from_dict(payload) == spec

    def test_from_dict_defaults_missing_blocks(self):
        spec = FaultSpec.from_dict({"name": "partial", "dvfs": {"fail_rate": 0.3}})
        assert spec.dvfs.fail_rate == 0.3
        assert spec.predictor.is_null and spec.sensor.is_null and spec.events.is_null

    @pytest.mark.parametrize(
        "block, field",
        [
            ("sensor", "noise_c"),
            ("events", "jitter_ms"),
            ("battery", "sag_power_scale"),
            ("battery", "brownout_dwell_ms"),
            ("burst", "burst_multiplier"),
        ],
    )
    def test_from_dict_rejects_nan_magnitudes(self, block, field):
        # NaN passes a plain ``x < bound`` check and infinity any lower
        # bound; a spec file can spell both.
        for value in (float("nan"), float("inf")):
            if block == "burst":
                payload = {"dvfs": {"fail_rate": 0.1, "burst": {field: value}}}
            else:
                payload = {block: {field: value}}
            with pytest.raises(ValueError, match=f"{block}.{field}"):
                FaultSpec.from_dict(json.loads(json.dumps(payload)))

    def test_preset_registry(self):
        assert list_fault_presets() == sorted(FAULT_PRESETS)
        with pytest.raises(KeyError, match="available"):
            get_fault_preset("does_not_exist")

    def test_burst_model_validation_and_nullness(self):
        with pytest.raises(ValueError, match="enter_rate"):
            BurstModel(enter_rate=1.5)
        with pytest.raises(ValueError, match="burst_multiplier"):
            BurstModel(burst_multiplier=-1.0)
        # A chain that never engages or never acts is null.
        assert BurstModel(enter_rate=0.0, burst_multiplier=5.0).is_null
        assert BurstModel(enter_rate=0.2, burst_multiplier=1.0).is_null
        model = BurstModel(enter_rate=0.1, exit_rate=0.4, burst_multiplier=5.0)
        assert not model.is_null
        assert model.occupancy == pytest.approx(0.1 / 0.5)
        # Stationary effective rate mixes the base and burst rates.
        assert model.effective_rate(0.1) == pytest.approx(0.8 * 0.1 + 0.2 * 0.5)

    def test_battery_validation_and_nullness(self):
        with pytest.raises(ValueError, match="sag_power_scale"):
            BatteryFaults(sag_power_scale=0.9)
        with pytest.raises(ValueError, match="misreport_cap_mhz"):
            BatteryFaults(misreport_cap_mhz=0)
        with pytest.raises(ValueError, match="brownout_dwell_ms"):
            BatteryFaults(brownout_dwell_ms=-1.0)
        # A sag rate with a unit power scale can never change anything.
        assert BatteryFaults(sag_rate=0.5, sag_power_scale=1.0).is_null
        assert not BatteryFaults(sag_rate=0.5, sag_power_scale=1.2).is_null
        assert not BatteryFaults(brownout_rate=0.1).is_null
        assert not BatteryFaults(misreport_rate=0.1).is_null

    def test_burst_free_payloads_keep_their_pre_burst_byte_shape(self):
        # Old journals and artefacts match specs by serialised content, so a
        # spec PR 6 could express must keep its exact payload keys.
        payload = get_fault_preset("dvfs_flaky").to_dict()
        assert "battery" not in payload
        assert all("burst" not in block for block in payload.values() if isinstance(block, dict))
        assert list(payload)[-1] == "description"

    def test_null_but_non_default_battery_round_trips(self):
        spec = FaultSpec(
            name="sagless", battery=BatteryFaults(sag_rate=0.3, sag_power_scale=1.0)
        )
        assert spec.is_null
        assert FaultSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


# -- identity invariant -------------------------------------------------------------


class TestZeroRateIdentity:
    def test_null_spec_maps_to_no_injector(self, fault_trace):
        for spec in (None, FaultSpec()):
            assert _Replay(SimulationSetup(faults=spec), fault_trace, "EBS").faults is None
        replay = _Replay(SimulationSetup(faults=get_fault_preset("chaos")), fault_trace, "EBS")
        assert isinstance(replay.faults, SessionFaultState)

    @pytest.mark.parametrize("scheme", KNOWN_SCHEMES)
    def test_zero_rate_spec_is_bit_identical_on_every_scheme(
        self, scheme, catalog, generator, learner
    ):
        # Dynamic thermal state included, so the sensed-temperature path is
        # part of the identity check too.
        thermal = get_thermal_model("cramped_chassis")
        traces = [generator.generate("cnn", seed=77)]
        results = {}
        for faults in (None, FaultSpec()):
            setup = SimulationSetup(thermal=thermal, faults=faults)
            simulator = Simulator(setup=setup, catalog=catalog)
            results[faults is None] = simulator.run_scheme(
                traces, scheme, learner=learner
            )
        assert results[True] == results[False]
        assert all(r.faults is None for r in results[True])

    @pytest.mark.parametrize("scheme", KNOWN_SCHEMES)
    def test_null_burst_chains_are_bit_identical_on_every_scheme(
        self, scheme, catalog, generator, learner
    ):
        # A burst model that can never engage, attached to every category of
        # a *faulting* spec, must not consume a single RNG draw: the replay
        # is bit-identical to the burst-free spec's.
        import dataclasses

        null_burst = BurstModel(enter_rate=0.0, exit_rate=0.5, burst_multiplier=6.0)
        base = get_fault_preset("chaos")
        bursty = dataclasses.replace(
            base,
            predictor=dataclasses.replace(base.predictor, burst=null_burst),
            sensor=dataclasses.replace(base.sensor, burst=null_burst),
            dvfs=dataclasses.replace(base.dvfs, burst=null_burst),
            events=dataclasses.replace(base.events, burst=null_burst),
            battery=dataclasses.replace(base.battery, burst=null_burst),
        )
        thermal = get_thermal_model("cramped_chassis")
        traces = [generator.generate("cnn", seed=77)]
        results = {}
        for key, faults in (("base", base), ("bursty", bursty)):
            simulator = Simulator(
                setup=SimulationSetup(thermal=thermal, faults=faults), catalog=catalog
            )
            results[key] = simulator.run_scheme(traces, scheme, learner=learner)
        assert results["base"] == results["bursty"]


# -- injection seams ----------------------------------------------------------------


@pytest.fixture(scope="module")
def fault_trace(generator):
    return generator.generate("cnn", seed=77)


class TestInjectionSeams:
    def test_dvfs_faults_inject_and_hold(self, catalog, fault_trace):
        spec = FaultSpec(name="dvfs_always", dvfs=DvfsFaults(fail_rate=1.0))
        setup = SimulationSetup(faults=spec)
        simulator = Simulator(setup=setup, catalog=catalog)
        (result,) = simulator.run_scheme([fault_trace], "Interactive")
        assert result.faults is not None
        assert result.faults.dvfs_injected > 0
        assert 0 <= result.faults.dvfs_recovered <= result.faults.dvfs_injected
        # Every failed transition charges the attempted switch as penalty.
        assert result.faults.fault_energy_mj > 0

    def test_predictor_flips_go_through_real_recovery(self, catalog, fault_trace, learner):
        spec = FaultSpec(name="flip_all", predictor=PredictorFaults(flip_rate=1.0))
        clean_sim = Simulator(setup=SimulationSetup(), catalog=catalog)
        faulty_sim = Simulator(setup=SimulationSetup(faults=spec), catalog=catalog)
        (clean,) = clean_sim.run_scheme([fault_trace], "PES", learner=learner)
        (faulty,) = faulty_sim.run_scheme([fault_trace], "PES", learner=learner)
        assert faulty.faults is not None
        assert faulty.faults.predictor_injected > 0
        # Squashed speculation shows up as misprediction waste the clean run
        # never pays; the seam is the control unit's real handle_mispredict
        # recovery.
        assert faulty.wasted_energy_mj > clean.wasted_energy_mj
        assert faulty.faults.fault_energy_mj > 0

    def test_predictor_faults_are_inert_for_reactive_schemes(self, catalog, fault_trace):
        spec = FaultSpec(name="flip_all", predictor=PredictorFaults(flip_rate=1.0))
        clean_sim = Simulator(setup=SimulationSetup(), catalog=catalog)
        faulty_sim = Simulator(setup=SimulationSetup(faults=spec), catalog=catalog)
        (clean,) = clean_sim.run_scheme([fault_trace], "EBS")
        (faulty,) = faulty_sim.run_scheme([fault_trace], "EBS")
        assert faulty.faults is not None
        assert faulty.faults.predictor_injected == 0
        # EBS never consults the predictor, so the replay itself is untouched.
        assert faulty.outcomes == clean.outcomes

    def test_sensor_faults_corrupt_the_governor_reading(self, catalog, generator):
        from repro.traces.presets import get_regime

        # A bursty session on a cramped chassis heats the package, so a
        # noisy/lagged sensor keeps disagreeing with the true temperature.
        regime = get_regime("flash_crowd")
        hot_generator = type(generator)(
            catalog=catalog,
            session=regime.session,
            workload_params=regime.workload_params,
        )
        trace = hot_generator.generate("cnn", seed=500_000)
        spec = FaultSpec(name="noisy", sensor=SensorFaults(noise_c=10.0, lag_readings=2))
        setup = SimulationSetup(thermal=get_thermal_model("cramped_chassis"), faults=spec)
        simulator = Simulator(setup=setup, catalog=catalog)
        (result,) = simulator.run_scheme([trace], "EBS")
        assert result.faults is not None
        assert result.faults.sensor_injected > 0
        assert 0 <= result.faults.sensor_recovered <= result.faults.sensor_injected

    def test_sensor_faults_inert_without_dynamic_thermal(self, catalog, fault_trace):
        spec = FaultSpec(name="noisy", sensor=SensorFaults(noise_c=10.0))
        clean_sim = Simulator(setup=SimulationSetup(), catalog=catalog)
        faulty_sim = Simulator(setup=SimulationSetup(faults=spec), catalog=catalog)
        (clean,) = clean_sim.run_scheme([fault_trace], "EBS")
        (faulty,) = faulty_sim.run_scheme([fault_trace], "EBS")
        # No live sensor to corrupt: the replay is identical and nothing is
        # counted as injected.
        assert faulty.faults is not None
        assert faulty.faults.sensor_injected == 0
        assert faulty.outcomes == clean.outcomes

    def test_stream_transform_yields_valid_deterministic_traces(self, fault_trace):
        spec = get_fault_preset("lossy_events")
        first = SessionFaultState(spec, fault_trace, "EBS").transform(fault_trace)
        second = SessionFaultState(spec, fault_trace, "EBS").transform(fault_trace)
        # Valid by construction (Trace validates indices and arrival order)
        # and deterministic for the same (spec, trace, scheme) identity.
        assert [e.index for e in first.events] == list(range(len(first.events)))
        assert first.events == second.events
        other_scheme = SessionFaultState(spec, fault_trace, "PES").transform(fault_trace)
        assert other_scheme.events != first.events

    def test_stream_faults_change_the_replay(self, catalog, fault_trace):
        spec = get_fault_preset("lossy_events")
        clean_sim = Simulator(setup=SimulationSetup(), catalog=catalog)
        faulty_sim = Simulator(setup=SimulationSetup(faults=spec), catalog=catalog)
        (clean,) = clean_sim.run_scheme([fault_trace], "EBS")
        (faulty,) = faulty_sim.run_scheme([fault_trace], "EBS")
        assert faulty.faults is not None
        stats = faulty.faults
        assert stats.events_dropped + stats.events_duplicated + stats.events_jittered > 0
        assert len(faulty.outcomes) == len(fault_trace.events) - stats.events_dropped + stats.events_duplicated

    def test_battery_sag_inflates_energy_and_ledgers_the_surcharge(
        self, catalog, fault_trace
    ):
        spec = FaultSpec(
            name="sag_always",
            battery=BatteryFaults(sag_rate=1.0, sag_power_scale=1.3),
        )
        clean_sim = Simulator(setup=SimulationSetup(), catalog=catalog)
        faulty_sim = Simulator(setup=SimulationSetup(faults=spec), catalog=catalog)
        (clean,) = clean_sim.run_scheme([fault_trace], "EBS")
        (faulty,) = faulty_sim.run_scheme([fault_trace], "EBS")
        stats = faulty.faults
        assert stats is not None
        assert stats.battery_injected == len(faulty.outcomes)
        assert 0 <= stats.battery_recovered <= stats.battery_injected
        # Every event drew through the sagging rail; only the surcharge
        # above nominal is fault-attributed, so the ledger reconciles.
        assert faulty.total_energy_mj > clean.total_energy_mj
        assert stats.fault_energy_mj == pytest.approx(
            faulty.total_energy_mj - clean.total_energy_mj
        )

    def test_battery_brownout_pins_the_lowest_rung(self, catalog, fault_trace):
        spec = FaultSpec(
            name="brownout_always",
            battery=BatteryFaults(brownout_rate=1.0, brownout_dwell_ms=100.0),
        )
        clean_sim = Simulator(setup=SimulationSetup(), catalog=catalog)
        faulty_sim = Simulator(setup=SimulationSetup(faults=spec), catalog=catalog)
        (clean,) = clean_sim.run_scheme([fault_trace], "Interactive")
        (faulty,) = faulty_sim.run_scheme([fault_trace], "Interactive")
        stats = faulty.faults
        assert stats is not None
        assert stats.battery_injected == len(faulty.outcomes)
        # Forced onto the lowest rung, the run is slower than the clean one.
        total = lambda result: sum(o.latency_ms for o in result.outcomes)
        assert total(faulty) > total(clean)

    def test_battery_misreport_caps_planning(self, catalog, fault_trace):
        spec = FaultSpec(
            name="lying_gauge",
            battery=BatteryFaults(misreport_rate=1.0, misreport_cap_mhz=600),
        )
        clean_sim = Simulator(setup=SimulationSetup(), catalog=catalog)
        faulty_sim = Simulator(setup=SimulationSetup(faults=spec), catalog=catalog)
        (clean,) = clean_sim.run_scheme([fault_trace], "EBS")
        (faulty,) = faulty_sim.run_scheme([fault_trace], "EBS")
        stats = faulty.faults
        assert stats is not None
        assert stats.battery_injected > 0
        assert faulty.outcomes != clean.outcomes

    def test_bursty_preset_injects_through_the_chain(self, catalog, fault_trace, learner):
        spec = get_fault_preset("predictor_bursty")
        simulator = Simulator(setup=SimulationSetup(faults=spec), catalog=catalog)
        (result,) = simulator.run_scheme([fault_trace], "PES", learner=learner)
        stats = result.faults
        assert stats is not None
        # The 5% base rate climbs to 50% inside bursts; over a full session
        # the chain must have engaged and flipped something.
        assert stats.predictor_injected > 0

    @pytest.mark.parametrize("name", sorted(FAULT_PRESETS))
    def test_every_preset_obeys_recovered_le_injected(self, name, catalog, fault_trace, learner):
        spec = get_fault_preset(name)
        setup = SimulationSetup(
            thermal=get_thermal_model("cramped_chassis"), faults=spec
        )
        simulator = Simulator(setup=setup, catalog=catalog)
        for scheme in ("Interactive", "PES"):
            (result,) = simulator.run_scheme([fault_trace], scheme, learner=learner)
            stats = result.faults
            assert stats is not None
            assert 0 <= stats.recovered <= stats.injected


# -- aggregation and scenario integration -------------------------------------------


class TestFaultAggregation:
    def test_session_stats_sum_into_aggregate(self):
        from repro.runtime.metrics import SessionResult, StreamingAggregator

        aggregator = StreamingAggregator()
        assert aggregator.finalize_faults() is None  # no faulted sessions
        first = FaultSessionStats(
            predictor_injected=4,
            predictor_recovered=3,
            dvfs_injected=2,
            dvfs_recovered=1,
            sensor_injected=5,
            sensor_recovered=5,
            events_dropped=1,
            events_duplicated=2,
            events_jittered=3,
            stream_recovered=4,
            battery_injected=6,
            battery_recovered=2,
            fault_energy_mj=3.5,
        )
        second = FaultSessionStats(
            predictor_injected=10,
            predictor_recovered=7,
            dvfs_injected=1,
            sensor_recovered=1,
            events_dropped=2,
            events_jittered=5,
            stream_recovered=1,
            battery_injected=3,
            battery_recovered=3,
            fault_energy_mj=1.25,
        )
        for stats, idle in ((first, 100.0), (second, 50.0)):
            aggregator.add(
                SessionResult(
                    app_name="cnn", scheduler_name="EBS", idle_energy_mj=idle, faults=stats
                )
            )
        # A fault-free session counts toward energy but not the fault ledger.
        aggregator.add(SessionResult(app_name="cnn", scheduler_name="EBS", idle_energy_mj=10.0))
        aggregate = aggregator.finalize_faults()
        assert aggregate == FaultAggregate(
            n_sessions=2,
            predictor_injected=14,
            predictor_recovered=10,
            dvfs_injected=3,
            dvfs_recovered=1,
            sensor_injected=5,
            sensor_recovered=6,
            events_dropped=3,
            events_duplicated=2,
            events_jittered=8,
            stream_recovered=5,
            battery_injected=9,
            battery_recovered=5,
            fault_energy_mj=4.75,
            energy_inflation=4.75 / (160.0 - 4.75),
        )
        assert aggregate.injected == first.injected + second.injected
        assert aggregate.recovered == first.recovered + second.recovered

    def test_session_stats_from_dict_defaults_only_the_battery_counters(self):
        stats = FaultSessionStats(predictor_injected=2, events_jittered=1, fault_energy_mj=0.5)
        legacy = {k: v for k, v in stats.to_dict().items() if not k.startswith("battery_")}
        loaded = FaultSessionStats.from_dict(legacy)
        assert loaded == stats
        assert (loaded.battery_injected, loaded.battery_recovered) == (0, 0)
        del legacy["predictor_injected"]
        with pytest.raises(KeyError, match="predictor_injected"):
            FaultSessionStats.from_dict(legacy)

    def test_aggregate_round_trips(self):
        aggregate = FaultAggregate(
            n_sessions=3,
            predictor_injected=4,
            predictor_recovered=2,
            dvfs_injected=5,
            dvfs_recovered=5,
            sensor_injected=1,
            sensor_recovered=0,
            events_dropped=2,
            events_duplicated=1,
            events_jittered=3,
            stream_recovered=2,
            battery_injected=6,
            battery_recovered=4,
            fault_energy_mj=12.5,
            energy_inflation=0.01,
        )
        assert FaultAggregate.from_dict(aggregate.to_dict()) == aggregate
        assert aggregate.injected == 4 + 5 + 1 + 2 + 1 + 3 + 6
        assert aggregate.recovered == 2 + 5 + 0 + 2 + 4
        # A PR 6 payload (no battery keys) still loads, defaulting to zero.
        legacy = {
            k: v
            for k, v in aggregate.to_dict().items()
            if not k.startswith("battery_")
        }
        assert FaultAggregate.from_dict(legacy).battery_injected == 0

    def test_matrix_fault_axis_expands_with_labelled_cells(self):
        matrix = ScenarioMatrix(
            name="m",
            platforms=("exynos5410",),
            regimes=("default",),
            app_mixes=("core",),
            schemes=("Interactive",),
            fault_specs=(None, get_fault_preset("chaos")),
        )
        specs = matrix.expand()
        assert matrix.n_cells == len(specs) == 2
        names = [spec.name for spec in specs]
        assert names == [
            "exynos5410/default/core/nofault",
            "exynos5410/default/core/chaos",
        ]
        assert specs[0].faults is None
        assert specs[1].faults == get_fault_preset("chaos")

    def test_duplicate_fault_labels_rejected(self):
        with pytest.raises(ValueError):
            ScenarioMatrix(
                name="m",
                platforms=("exynos5410",),
                regimes=("default",),
                app_mixes=("core",),
                schemes=("Interactive",),
                fault_specs=(None, None),
            )

    def test_scenario_results_carry_and_round_trip_fault_blocks(self):
        runner = ScenarioRunner(jobs=1)
        specs = [
            ScenarioSpec(
                name="clean", regime="default", apps=("cnn",), schemes=("EBS",)
            ),
            ScenarioSpec(
                name="faulty",
                regime="default",
                apps=("cnn",),
                schemes=("EBS",),
                faults=get_fault_preset("dvfs_flaky"),
            ),
        ]
        clean, faulty = runner.run(specs)
        assert clean.aggregates["EBS"].faults is None
        aggregate = faulty.aggregates["EBS"].faults
        assert aggregate is not None
        assert aggregate.injected > 0
        assert aggregate.energy_inflation >= 0.0

        payload = faulty.to_dict()
        assert "faults" in payload["schemes"]["EBS"]
        assert "faults" not in clean.to_dict()["schemes"]["EBS"]
        rebuilt = ScenarioResult.from_dict(json.loads(json.dumps(payload)))
        assert rebuilt.to_dict() == payload

        table = scenario_faults_table([clean, faulty])
        assert "faulty" in table and "recovery" in table
        assert scenario_faults_table([clean]) == ""
