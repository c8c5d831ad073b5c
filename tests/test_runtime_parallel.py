"""Parallel-vs-serial equivalence tests for the batched evaluation engine.

Every trace replay is deterministic, so fanning the (scheme x trace) jobs
out over worker processes must produce *bit-identical* sessions (checked as
the shard payload text each job hands on) and aggregates — these tests pin
that contract for all five schemes.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace

import pytest

from repro.runtime.metrics import StreamingAggregator, StreamingSweepAggregator
from repro.runtime.parallel import MatrixSweep, ParallelEvaluator
from repro.runtime.simulator import Simulator
from repro.utils import resolve_jobs

from pool_payloads import aggregate_results, encoded, finalized, pool_payloads, sessions


def _head(trace, n):
    """The first ``n`` events of ``trace``; its first event arrives at 0 ms."""
    return replace(trace, events=trace.events[:n])


ALL_SCHEMES = ["Interactive", "Ondemand", "EBS", "PES", "Oracle"]


@pytest.fixture(scope="module")
def eval_traces(generator):
    """A small multi-app sweep: two apps, two sessions each, 10 events."""
    traces = [
        generator.generate("cnn", seed=301),
        generator.generate("cnn", seed=302),
        generator.generate("google", seed=303),
        generator.generate("ebay", seed=304),
    ]
    return [_head(t, 10) for t in traces]


def one_sweep(setup, traces, schemes) -> list[MatrixSweep]:
    return [MatrixSweep(key="cell", setup=setup, traces=tuple(traces), schemes=tuple(schemes))]


@pytest.fixture(scope="module")
def serial_results(simulator, eval_traces, learner):
    return {
        scheme: simulator.run_scheme(eval_traces, scheme, learner=learner)
        for scheme in ALL_SCHEMES
    }


class TestParallelEquivalence:
    def test_parallel_matches_serial_for_all_schemes(
        self, setup, catalog, eval_traces, learner, serial_results
    ):
        evaluator = ParallelEvaluator(setup=setup, catalog=catalog, jobs=4)
        _, parallel = pool_payloads(
            evaluator, one_sweep(setup, eval_traces, ALL_SCHEMES), learner=learner
        )
        assert parallel == encoded("cell", serial_results)

    def test_aggregates_match_serial_fold(self, setup, catalog, eval_traces, learner, serial_results):
        evaluator = ParallelEvaluator(setup=setup, catalog=catalog, jobs=3)
        aggregates = finalized(
            evaluator.evaluate_matrix(one_sweep(setup, eval_traces, ALL_SCHEMES), learner=learner)
        )
        for scheme in ALL_SCHEMES:
            expected = aggregate_results(serial_results[scheme])
            assert aggregates["cell"][scheme].overall == expected

    def test_streaming_per_app_matches_grouped_aggregation(
        self, setup, catalog, eval_traces, learner, serial_results
    ):
        """``compare``'s per-app aggregates against the list path: in-process
        sessions grouped by app here, each group through ``aggregate_results``."""
        grouped: dict[str, dict[str, list]] = {}
        for scheme, results in serial_results.items():
            for result in results:
                grouped.setdefault(scheme, {}).setdefault(result.app_name, []).append(result)
        for jobs in (1, 2):
            evaluator = ParallelEvaluator(setup=setup, catalog=catalog, jobs=jobs)
            aggregates = evaluator.compare(eval_traces, ALL_SCHEMES, learner=learner)
            assert list(aggregates) == ALL_SCHEMES
            for scheme, by_app in grouped.items():
                expected = {app: aggregate_results(results) for app, results in by_app.items()}
                assert aggregates[scheme].per_app == expected, (scheme, jobs)
                assert list(aggregates[scheme].per_app) == list(expected)
                assert aggregates[scheme].overall == aggregate_results(serial_results[scheme])

    def test_result_ordering_is_trace_order(self, setup, catalog, eval_traces):
        evaluator = ParallelEvaluator(setup=setup, catalog=catalog, jobs=4)
        _, payloads = pool_payloads(evaluator, one_sweep(setup, eval_traces, ["Interactive"]))
        assert [index for _, _, index, _ in payloads] == list(range(len(eval_traces)))
        apps = [json.loads(payload)["app_name"] for *_, payload in payloads]
        assert apps == [t.app_name for t in eval_traces]


class TestParallelEvaluatorApi:
    def test_pes_requires_learner(self, setup, catalog, eval_traces):
        evaluator = ParallelEvaluator(setup=setup, catalog=catalog, jobs=2)
        with pytest.raises(ValueError):
            evaluator.compare(eval_traces, ["PES"])

    def test_empty_sweep(self, setup, catalog):
        # A sweep with no traces has no aggregates to return.
        evaluator = ParallelEvaluator(setup=setup, catalog=catalog, jobs=2)
        with pytest.raises(ValueError, match="no traces"):
            evaluator.compare([], ["EBS"])

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1
        with pytest.raises(ValueError):
            resolve_jobs(-2)

    def test_unknown_scheme_propagates(self, setup, catalog, eval_traces):
        evaluator = ParallelEvaluator(setup=setup, catalog=catalog, jobs=2)
        with pytest.raises(ValueError):
            evaluator.compare(eval_traces, ["Magic"])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_duplicate_scheme_rejected(self, setup, catalog, eval_traces, jobs):
        # A repeated scheme used to replay twice and fold every session
        # twice: the aggregate counted 2x the sessions its results held.
        evaluator = ParallelEvaluator(setup=setup, catalog=catalog, jobs=jobs)
        with pytest.raises(ValueError, match="scheme twice"):
            evaluator.compare(eval_traces[:2], ["EBS", "EBS"])


class TestMatrixEvaluation:
    """evaluate_matrix: several setups through one pool, scenario-keyed."""

    @pytest.fixture(scope="class")
    def sweeps(self, setup, generator):
        from repro.hardware.platforms import tegra_parker
        from repro.runtime.parallel import MatrixSweep
        from repro.runtime.simulator import SimulationSetup

        cnn = [_head(generator.generate("cnn", seed=601), 8)]
        google = [_head(generator.generate("google", seed=602), 8)]
        return [
            MatrixSweep(
                key="exynos", setup=setup, traces=tuple(cnn), schemes=("Interactive", "EBS")
            ),
            MatrixSweep(
                key="tegra",
                setup=SimulationSetup(system=tegra_parker()),
                traces=tuple(google),
                schemes=("Interactive", "Ondemand"),
            ),
        ]

    def test_serial_and_parallel_matrices_are_identical(self, catalog, sweeps):
        from repro.runtime.parallel import ParallelEvaluator

        serial = pool_payloads(ParallelEvaluator(catalog=catalog, jobs=1), sweeps)
        parallel = pool_payloads(ParallelEvaluator(catalog=catalog, jobs=3), sweeps)
        assert parallel == serial

    def test_per_key_setups_actually_differ(self, catalog, sweeps):
        from repro.runtime.parallel import ParallelEvaluator

        _, payloads = pool_payloads(ParallelEvaluator(catalog=catalog, jobs=1), sweeps)
        exynos_label = sessions(payloads, "exynos", "Interactive")[0].outcomes[0].config_label
        tegra_label = sessions(payloads, "tegra", "Interactive")[0].outcomes[0].config_label
        assert "A15" in exynos_label or "A7" in exynos_label
        assert "A57" in tegra_label

    def test_aggregates_match_per_cell_fold(self, catalog, sweeps):
        from repro.runtime.parallel import ParallelEvaluator

        aggregates = finalized(ParallelEvaluator(catalog=catalog, jobs=1).evaluate_matrix(sweeps))
        for sweep in sweeps:
            simulator = Simulator(setup=sweep.setup, catalog=catalog)
            for scheme in sweep.schemes:
                expected = aggregate_results(simulator.run_scheme(sweep.traces, scheme))
                assert aggregates[sweep.key][scheme].overall == expected

    def test_duplicate_keys_rejected(self, catalog, sweeps):
        from repro.runtime.parallel import ParallelEvaluator

        with pytest.raises(ValueError, match="unique"):
            ParallelEvaluator(catalog=catalog).evaluate_matrix([sweeps[0], sweeps[0]])

    def test_pes_without_learner_rejected(self, catalog, setup, generator):
        from repro.runtime.parallel import MatrixSweep, ParallelEvaluator

        sweep = MatrixSweep(
            key="k",
            setup=setup,
            traces=(_head(generator.generate("cnn", seed=603), 4),),
            schemes=("PES",),
        )
        with pytest.raises(ValueError, match="learner"):
            ParallelEvaluator(catalog=catalog).evaluate_matrix([sweep])

    def test_unknown_scheme_rejected_at_sweep_construction(self, catalog, setup):
        from repro.runtime.parallel import MatrixSweep

        with pytest.raises(ValueError, match="scheme"):
            MatrixSweep(key="k", setup=setup, traces=(), schemes=("Magic",))

    def test_empty_traces_rejected_at_sweep_construction(self, setup):
        from repro.runtime.parallel import MatrixSweep

        with pytest.raises(ValueError, match="traces"):
            MatrixSweep(key="k", setup=setup, traces=(), schemes=("Interactive",))

    @pytest.fixture(scope="class")
    def recipe_sweeps(self, setup, generator):
        from repro.runtime.parallel import MatrixSweep

        return [
            MatrixSweep(
                key=f"cell{seed}",
                setup=setup,
                traces=generator.recipes(
                    ["cnn", "google"], 2, base_seed=seed, independent_streams=True
                ),
                schemes=("Interactive", "EBS"),
            )
            for seed in (7, 8)
        ]

    def test_pool_replays_the_traces_the_recipes_generate(self, catalog, recipe_sweeps):
        import dataclasses

        from repro.runtime.parallel import ParallelEvaluator

        materialised = [
            dataclasses.replace(sweep, traces=tuple(sweep.traces)) for sweep in recipe_sweeps
        ]
        pooled = pool_payloads(ParallelEvaluator(catalog=catalog, jobs=2), recipe_sweeps)
        in_process = pool_payloads(ParallelEvaluator(catalog=catalog, jobs=1), materialised)
        assert pooled == in_process
        for sweep in materialised:
            for scheme in sweep.schemes:
                replayed = sessions(pooled[1], sweep.key, scheme)
                assert [r.app_name for r in replayed] == [t.app_name for t in sweep.traces]
                assert [len(r.outcomes) for r in replayed] == [len(t) for t in sweep.traces]

    def test_job_hook_follows_global_fold_order_at_any_worker_count(
        self, catalog, recipe_sweeps
    ):
        from repro.runtime.parallel import ParallelEvaluator

        def hook_order(jobs: int) -> list[tuple[str, str, int]]:
            seen: list[tuple[str, str, int]] = []
            ParallelEvaluator(catalog=catalog, jobs=jobs).evaluate_matrix(
                recipe_sweeps,
                on_job_complete=lambda key, scheme, index, result: seen.append(
                    (key, scheme, index)
                ),
            )
            return seen

        expected = [
            (sweep.key, scheme, index)
            for sweep in recipe_sweeps
            for scheme in sweep.schemes
            for index in range(len(sweep.traces))
        ]
        assert hook_order(1) == expected
        assert hook_order(2) == expected

    def test_empty_matrix(self, catalog):
        from repro.runtime.parallel import ParallelEvaluator

        assert ParallelEvaluator(catalog=catalog).evaluate_matrix([]) == {}


def _counting(counts: Counter, name: str, method):
    """``method``, counting its calls under ``name``."""

    def counted(self, *args, **kwargs):
        counts[name] += 1
        return method(self, *args, **kwargs)

    return counted


class TestSweepsFinalisedOnce:
    """``evaluate_matrix`` returns its cells unfinalised, and the hook gets
    the same objects.  A scenario run finalises each cell once; a fleet run
    finalises none and merges each session's fold into one cell only."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fleet_reads_the_cells(self, jobs, monkeypatch):
        from repro.fleet import FleetRunner, get_fleet_preset
        from repro.scenarios import runner

        # Folds merge in the parent, so parent-side counters see every call
        # at any worker count.
        counts: Counter = Counter()
        for owner, name in (
            (StreamingAggregator, "merge"),
            (StreamingSweepAggregator, "finalize"),
            (runner.ScenarioResult, "__init__"),
        ):
            monkeypatch.setattr(owner, name, _counting(counts, name, getattr(owner, name)))
        fleet = replace(get_fleet_preset("smoke"), size=20)
        result = FleetRunner(jobs=jobs).run(fleet)
        n_sessions = sum(agg.n_sessions for agg in result.population.values())
        assert n_sessions == 20 * len(fleet.schemes) == 40
        # Each session merges into its cell's overall and per-app aggregates
        # (80), and each (device, scheme) cell into the population (40).
        assert counts["merge"] == 2 * n_sessions + 40 == 120
        assert counts["__init__"] == 0
        assert counts["finalize"] == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_scenario_run_finalises_each_cell_once(self, catalog, jobs, monkeypatch):
        from repro.scenarios.runner import ScenarioRunner
        from repro.scenarios.spec import ScenarioSpec

        specs = [
            ScenarioSpec(name="a", apps=("cnn",), schemes=("Interactive", "EBS")),
            ScenarioSpec(name="b", apps=("google",), schemes=("Interactive", "Ondemand")),
            ScenarioSpec(name="c", apps=("ebay",), schemes=("EBS",)),
        ]
        finalised: list[StreamingSweepAggregator] = []
        finalize = StreamingSweepAggregator.finalize

        def recording_finalize(cell):
            finalised.append(cell)
            return finalize(cell)

        monkeypatch.setattr(StreamingSweepAggregator, "finalize", recording_finalize)
        results = ScenarioRunner(catalog=catalog, jobs=jobs).run(specs)
        assert [result.spec.name for result in results] == ["a", "b", "c"]
        assert len(finalised) == len({id(cell) for cell in finalised}) == 5

    def test_hook_receives_the_returned_aggregates(self, catalog, setup, generator):
        sweeps = [
            MatrixSweep(
                key=f"k{seed}",
                setup=setup,
                traces=(_head(generator.generate("cnn", seed=seed), 6),),
                schemes=("Interactive", "EBS"),
            )
            for seed in (611, 612)
        ]
        received = {}
        returned = ParallelEvaluator(catalog=catalog, jobs=1).evaluate_matrix(
            sweeps, on_sweep_complete=lambda sweep, cells: received.setdefault(sweep.key, cells)
        )
        assert list(received) == list(returned) == ["k611", "k612"]
        for key, cells in returned.items():
            assert list(cells) == ["Interactive", "EBS"]
            for scheme, cell in cells.items():
                assert isinstance(cell, StreamingSweepAggregator)
                assert received[key][scheme] is cell


class TestSweptPlatformMatrixEquivalence:
    """jobs=N == jobs=1 for matrices whose cells are *derived* platforms.

    The matrix worker caches one simulator per sweep key; swept cells differ
    only in platform overrides (core counts, perf_scale, thermal throttle),
    so the keys — which embed every override — must keep those simulators
    apart or two variants silently share hardware models.
    """

    @pytest.fixture(scope="class")
    def swept_sweeps(self, generator):
        from repro.hardware.platforms import derive_platform
        from repro.hardware.thermal import get_thermal_model
        from repro.runtime.parallel import MatrixSweep
        from repro.runtime.simulator import SimulationSetup

        trace = _head(generator.generate("cnn", seed=605), 8)
        base = derive_platform("exynos5410")
        variants = {
            "exynos5410": base,
            "exynos5410+b2": derive_platform("exynos5410", big_cores=2),
            "exynos5410+ps0.9": derive_platform("exynos5410", little_perf_scale=0.9),
            "exynos5410+th.cramped": get_thermal_model("cramped_chassis").constrain(base),
        }
        return [
            MatrixSweep(
                key=key,
                setup=SimulationSetup(system=system),
                traces=(trace,),
                schemes=("Interactive", "EBS"),
            )
            for key, system in variants.items()
        ]

    def test_parallel_matches_serial_bit_for_bit(self, catalog, swept_sweeps):
        from repro.runtime.parallel import ParallelEvaluator

        serial = pool_payloads(ParallelEvaluator(catalog=catalog, jobs=1), swept_sweeps)
        parallel = pool_payloads(ParallelEvaluator(catalog=catalog, jobs=4), swept_sweeps)
        assert parallel == serial

    def test_variant_cells_are_not_shared(self, catalog, swept_sweeps):
        """Distinct overrides must produce distinct outcomes somewhere —
        otherwise the per-key simulators were (wrongly) shared."""
        from repro.runtime.parallel import ParallelEvaluator

        aggregates = finalized(
            ParallelEvaluator(catalog=catalog, jobs=2).evaluate_matrix(swept_sweeps)
        )
        base = aggregates["exynos5410"]
        assert aggregates["exynos5410+b2"] != base
        assert aggregates["exynos5410+th.cramped"] != base


class TestSpawnSafety:
    """The pool paths must work under the spawn start method (macOS/Windows
    default): nothing may rely on fork-inherited module state."""

    def test_parallel_sweep_under_spawn_context(
        self, monkeypatch, setup, catalog, generator
    ):
        import multiprocessing

        from repro.runtime import parallel as parallel_module
        from repro.runtime.parallel import ParallelEvaluator

        monkeypatch.setattr(
            parallel_module, "mp_context", lambda: multiprocessing.get_context("spawn")
        )
        traces = [_head(generator.generate(app, seed=604), 6) for app in ("cnn", "google")]
        sweeps = one_sweep(setup, traces, ["Interactive", "EBS"])
        spawned = pool_payloads(ParallelEvaluator(setup=setup, catalog=catalog, jobs=2), sweeps)
        serial = pool_payloads(ParallelEvaluator(setup=setup, catalog=catalog, jobs=1), sweeps)
        assert spawned == serial
