"""Fleet-population tests: sampling determinism, percentile edge cases,
worker-count byte-identity, and mid-run crash/resume of a fleet evaluation.

The contracts under test:

* device sampling is a pure function of ``(fleet name, fleet seed, index)``
  — independent of population size, call order, and worker count,
* nearest-rank percentiles saturate for small populations (the p99 of a
  10-device fleet is its worst device) and degenerate populations yield
  ``None``/``n/a`` instead of raising,
* ``FLEET_*.json`` artefacts are byte-identical for any ``--jobs`` value,
* a fleet run killed mid-device and resumed from its shard journal
  re-simulates only the missing sessions and produces a byte-identical
  artefact.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cli import main
from repro.fleet import (
    DevicePopulation,
    FleetRunner,
    FleetSpec,
    fleet_to_payload,
    get_fleet_preset,
    list_fleet_presets,
    load_fleet_results,
    percentile,
    percentile_block,
    write_fleet_results,
)
from repro.fleet.metrics import mean_or_none, win_loss
from repro.scenarios import ArtefactError
from repro.scenarios.checkpoint import ShardJournal


def tiny_fleet(**overrides) -> FleetSpec:
    """A four-device, two-scheme fleet sized for fast end-to-end tests."""
    spec = FleetSpec(
        name="tiny",
        size=4,
        schemes=("Interactive", "EBS"),
        apps_per_device=1,
        faults=((None, 3.0), ("dvfs_flaky", 1.0)),
    )
    return dataclasses.replace(spec, **overrides) if overrides else spec


class TestFleetSpec:
    def test_presets_exist_and_validate(self):
        assert "default" in list_fleet_presets()
        assert "smoke" in list_fleet_presets()
        assert get_fleet_preset("default").size == 200
        with pytest.raises(KeyError, match="unknown fleet"):
            get_fleet_preset("nope")

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"schemes": ("Interactive", "Nope")}, "unknown scheme"),
            ({"schemes": ("EBS", "EBS")}, "twice"),
            ({"regimes": (("not_a_regime", 1.0),)}, "not_a_regime"),
            ({"app_mixes": (("not_a_mix", 1.0),)}, "not_a_mix"),
            ({"thermals": (("not_a_curve", 1.0),)}, "not_a_curve"),
            ({"faults": (("not_a_preset", 1.0),)}, "not_a_preset"),
            ({"regimes": ()}, "empty"),
            ({"regimes": (("default", 0.0),)}, "non-positive weight"),
            ({"regimes": (("default", 1.0), ("default", 2.0))}, "duplicate"),
            ({"slice_by": ("regime", "shoe_size")}, "unknown slice axis"),
            ({"size": 0}, "size"),
        ],
    )
    def test_invalid_specs_are_rejected(self, overrides, message):
        with pytest.raises((ValueError, KeyError), match=message):
            tiny_fleet(**overrides)

    def test_variants_may_not_carry_thermal_curves(self):
        from repro.scenarios import PlatformVariant

        with pytest.raises(ValueError, match="thermals axis"):
            tiny_fleet(
                variants=(
                    (PlatformVariant(platform="exynos5410", thermal="passive_phone"), 1.0),
                )
            )


class TestSamplingDeterminism:
    def test_device_is_a_pure_function_of_fleet_and_index(self):
        population = DevicePopulation(get_fleet_preset("default"))
        assert population.device(7) == population.device(7)
        # Sampling out of order changes nothing: each device has its own
        # seed stream, no draw leaks state into the next.
        backwards = [population.device(i) for i in reversed(range(10))]
        assert list(reversed(backwards)) == population.devices()[:10]

    def test_population_size_does_not_change_device_identity(self):
        spec = get_fleet_preset("default")
        small = DevicePopulation(dataclasses.replace(spec, size=12))
        large = DevicePopulation(spec)
        assert small.devices() == large.devices()[:12]

    def test_out_of_range_index_raises(self):
        population = DevicePopulation(tiny_fleet())
        with pytest.raises(IndexError, match="outside fleet"):
            population.device(4)
        with pytest.raises(IndexError, match="outside fleet"):
            population.device(-1)

    def test_ambient_only_drawn_for_thermal_devices(self):
        for device in DevicePopulation(get_fleet_preset("default")):
            if device.thermal is None:
                assert device.ambient_c is None
            else:
                assert device.ambient_c is not None

    def test_apps_come_from_the_device_mix(self):
        from repro.scenarios import resolve_app_mix

        for device in DevicePopulation(get_fleet_preset("default")):
            assert set(device.apps) <= set(resolve_app_mix(device.mix))
            assert len(device.apps) == len(set(device.apps))

    def test_scenario_specs_are_valid_and_uniquely_named(self):
        specs = DevicePopulation(get_fleet_preset("smoke")).scenario_specs()
        names = [spec.name for spec in specs]
        assert len(set(names)) == len(names)
        for spec in specs:
            spec.system()  # derives the platform; raises if invalid


class TestPercentileEdgeCases:
    def test_empty_population_returns_none_not_raise(self):
        assert percentile([], 0.99) is None
        assert percentile_block([]) == {"p50": None, "p95": None, "p99": None}
        assert mean_or_none([]) is None

    def test_p99_of_ten_devices_is_the_maximum(self):
        # Nearest rank: ceil(0.99 * 10) = 10 -> the worst device.  A
        # 10-device fleet has no 99th-percentile device to interpolate to.
        values = list(range(10))
        assert percentile(values, 0.99) == 9
        assert percentile(values, 0.95) == 9
        assert percentile(values, 0.50) == 4

    def test_single_device_population_is_its_own_percentile(self):
        assert percentile_block([42.0]) == {"p50": 42.0, "p95": 42.0, "p99": 42.0}

    def test_exact_rank_boundaries(self):
        values = list(range(1, 101))  # 1..100
        assert percentile(values, 0.50) == 50
        assert percentile(values, 0.95) == 95
        assert percentile(values, 0.99) == 99
        assert percentile(values, 1.0) == 100

    def test_quantile_domain_is_validated(self):
        with pytest.raises(ValueError, match="quantile"):
            percentile([1.0], 0.0)
        with pytest.raises(ValueError, match="quantile"):
            percentile([1.0], 1.5)

    def test_win_loss_counts(self):
        assert win_loss([0.8, 0.9, 1.0, 1.1]) == {"wins": 2, "losses": 1, "ties": 1}
        assert win_loss([]) == {"wins": 0, "losses": 0, "ties": 0}


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One uninterrupted serial run of the tiny fleet, with its artefact."""
    path = tmp_path_factory.mktemp("fleet") / "tiny.json"
    result = FleetRunner(jobs=1).run(tiny_fleet())
    write_fleet_results(result, path)
    return result, path.read_text()


class TestFleetEvaluation:
    def test_every_device_and_scheme_is_aggregated(self, tiny_run):
        result, _ = tiny_run
        fleet = result.fleet
        assert len(result.devices) == fleet.size
        assert set(result.device_aggregates) == {
            (index, scheme)
            for index in range(fleet.size)
            for scheme in fleet.schemes
        }

    def test_population_merge_is_shard_split_invariant(self, tiny_run):
        """Merging the per-device shards in any grouping is bit-identical
        to the population aggregate (the first-class merge contract)."""
        from repro.runtime.metrics import StreamingAggregator

        result, _ = tiny_run
        for scheme, merged in result.population.items():
            total_sessions = sum(
                agg.n_sessions
                for (_, s), agg in result.device_aggregates.items()
                if s == scheme
            )
            assert merged.n_sessions == total_sessions
            for split in range(1, result.fleet.size):
                left, right = StreamingAggregator(), StreamingAggregator()
                for index in range(result.fleet.size):
                    target = left if index < split else right
                    target.merge(result.device_aggregates[(index, scheme)])
                left.merge(right)
                assert left.total_energy_mj == merged.total_energy_mj
                assert left.total_latency_ms == merged.total_latency_ms
                assert left.n_sessions == merged.n_sessions

    def test_device_aggregates_match_an_in_process_replay(self, tiny_run):
        """Each device's aggregate folds exactly that device's sessions:
        replay its sweep in-process and aggregate the session list."""
        from pool_payloads import aggregate_results
        from repro.runtime.metrics import StreamingAggregator
        from repro.runtime.simulator import Simulator
        from repro.scenarios.runner import ScenarioRunner

        result, _ = tiny_run
        fleet = result.fleet
        runner = ScenarioRunner()
        for device in result.devices:
            sweep = runner.build_sweep(device.to_scenario_spec(fleet))
            simulator = Simulator(setup=sweep.setup)
            traces = tuple(sweep.traces)
            for scheme in fleet.schemes:
                sessions = simulator.run_scheme(traces, scheme)
                aggregate = result.device_aggregates[(device.index, scheme)]
                assert aggregate.finalize() == aggregate_results(sessions)
                folded = StreamingAggregator()
                for session in sessions:
                    folded.add(session)
                assert aggregate.finalize_thermal() == folded.finalize_thermal()
                assert aggregate.finalize_faults() == folded.finalize_faults()

    def test_jobs_values_write_byte_identical_artefacts(self, tiny_run, tmp_path):
        _, reference = tiny_run
        parallel = FleetRunner(jobs=2).run(tiny_fleet())
        path = write_fleet_results(parallel, tmp_path / "tiny_j2.json")
        assert path.read_text() == reference

    def test_payload_reports_percentiles_and_slices(self, tiny_run):
        result, text = tiny_run
        payload = json.loads(text)
        assert payload["jobs"] is None
        assert payload["n_devices"] == result.fleet.size
        for scheme in result.fleet.schemes:
            block = payload["population"][scheme]["percentiles"]
            assert set(block) == {
                "energy_mj", "qos_violation_rate", "mean_latency_ms", "throttle_residency",
            }
            for quantiles in block.values():
                assert set(quantiles) == {"p50", "p95", "p99"}
        assert sum(entry["n_devices"] for entry in payload["slices"].values()) == (
            result.fleet.size
        )
        for entry in payload["slices"].values():
            for scheme_block in entry["schemes"].values():
                assert {"wins", "losses", "ties"} <= set(scheme_block)

    def test_unthrottled_devices_report_na_throttle_residency(self, tiny_run):
        result, text = tiny_run
        payload = json.loads(text)
        nothermal = [
            row for row in payload["devices"] if row["thermal"] is None
        ]
        assert nothermal, "tiny fleet should sample at least one unthrottled chassis"
        for row in nothermal:
            for scheme_block in row["schemes"].values():
                assert scheme_block["throttle_residency"] is None
                assert scheme_block["peak_temperature_c"] is None

    def test_resume_after_mid_device_crash_is_byte_identical(
        self, tiny_run, tmp_path, monkeypatch
    ):
        """Fail-before test for mid-cell resume: kill the run part-way
        through a device's sessions, resume from the shard journal, and
        require (a) a byte-identical artefact and (b) that the journaled
        sessions were restored, not re-simulated."""
        import repro.runtime.simulator as simulator_module

        _, reference = tiny_run
        journal = ShardJournal(tmp_path / "tiny.journal")
        original = simulator_module.Simulator.run_scheme
        calls = {"n": 0}

        def crash_after_three(self, traces, scheme, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 3:
                raise KeyboardInterrupt("simulated mid-device crash")
            return original(self, traces, scheme, *args, **kwargs)

        monkeypatch.setattr(simulator_module.Simulator, "run_scheme", crash_after_three)
        with pytest.raises(KeyboardInterrupt):
            FleetRunner(jobs=1).run(tiny_fleet(), shards=journal)
        assert journal.path.exists()

        replays = {"n": 0}

        def count_replays(self, traces, scheme, *args, **kwargs):
            replays["n"] += 1
            return original(self, traces, scheme, *args, **kwargs)

        monkeypatch.setattr(simulator_module.Simulator, "run_scheme", count_replays)
        resumed = FleetRunner(jobs=1).run(tiny_fleet(), shards=journal, resume=True)
        path = write_fleet_results(resumed, tmp_path / "resumed.json")
        assert path.read_text() == reference
        total = tiny_fleet().size * len(tiny_fleet().schemes)
        assert replays["n"] == total - 3, "journaled sessions must not re-simulate"

    def test_resume_without_journal_runs_everything(self, tiny_run, tmp_path):
        _, reference = tiny_run
        journal = ShardJournal(tmp_path / "fresh.journal")
        result = FleetRunner(jobs=1).run(tiny_fleet(), shards=journal, resume=True)
        assert write_fleet_results(result, tmp_path / "fresh.json").read_text() == reference


class TestFleetArtefactIO:
    def test_write_is_atomic_and_load_round_trips(self, tiny_run, tmp_path):
        result, text = tiny_run
        path = write_fleet_results(result, tmp_path / "out.json")
        assert not list(tmp_path.glob("*.tmp"))
        assert load_fleet_results(path) == json.loads(text)

    def test_corrupt_artefact_raises_artefact_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"fleet": {"name": "x", ')
        with pytest.raises(ArtefactError, match="broken.json"):
            load_fleet_results(path)


class TestFleetCli:
    def test_sample_prints_the_population(self, capsys):
        assert main(["fleet", "sample", "--fleet", "smoke", "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "fleet smoke: 12 device(s)" in out
        assert "d0000" in out and "d0003" not in out
        assert "more device(s)" in out

    def test_run_writes_artefact_and_clears_journal(self, tmp_path, capsys):
        out_path = tmp_path / "FLEET_cli.json"
        assert (
            main(
                [
                    "fleet", "run", "--fleet", "smoke", "--size", "2",
                    "--jobs", "1", "--out", str(out_path),
                ]
            )
            == 0
        )
        stdout = capsys.readouterr().out
        assert "wrote 2 device results" in stdout
        payload = load_fleet_results(out_path)
        assert payload["n_devices"] == 2
        assert not (tmp_path / "FLEET_cli.json.journal").exists()

        assert main(["fleet", "report", str(out_path)]) == 0
        assert "p95" in capsys.readouterr().out

    def test_run_help_documents_resume(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "run", "--help"])
        out = capsys.readouterr().out
        assert "--resume" in out and "byte-identical" in out

    def test_report_rejects_corrupt_artefacts(self, tmp_path):
        header = {"fleet": {"name": "x"}, "n_devices": 1, "n_sessions": 1}
        cases = [
            ('{"fleet": {"name": "x", ', r"bad\.json is corrupt"),
            (None, r"bad\.json cannot be read: No such file or directory"),
            (
                json.dumps({**header, "fleet": 1, "population": [], "slices": {}}),
                r"bad\.json is malformed: TypeError",
            ),
            (
                json.dumps({**header, "population": {"PES": 3}, "slices": {}}),
                r"bad\.json is malformed: TypeError",
            ),
        ]
        for content, message in cases:
            path = tmp_path / "bad.json"
            path.unlink(missing_ok=True)
            if content is not None:
                path.write_text(content)
            with pytest.raises(SystemExit, match=rf"^fleet report: .*{message}") as excinfo:
                main(["fleet", "report", str(path)])
            assert "\n" not in str(excinfo.value)

    def test_report_rejects_a_scenarios_artefact(self, tmp_path):
        path = tmp_path / "SCENARIOS_x.json"
        path.write_text(json.dumps({"matrix": "default", "scenarios": []}))
        with pytest.raises(SystemExit, match=r"^fleet report: .*SCENARIOS_x\.json has no 'fleet' key"):
            main(["fleet", "report", str(path)])

    def test_load_names_the_first_missing_key(self, tiny_run, tmp_path):
        payload = json.loads(tiny_run[1])
        del payload["population"], payload["slices"]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ArtefactError, match="has no 'population' key"):
            load_fleet_results(path)
