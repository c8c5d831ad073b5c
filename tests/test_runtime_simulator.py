"""Tests for the Simulator experiment driver."""

from dataclasses import replace

import pytest

from repro.core.pes import PesConfig
from repro.runtime.metrics import (
    SessionResult,
    StreamingSweepAggregator,
    _session_fold,
    encode_session,
    normalised_energy_by_app,
)
from repro.runtime.parallel import ParallelEvaluator
from repro.runtime.simulator import SimulationSetup, Simulator
from repro.schedulers.ebs import EbsScheduler


def _head(trace, n):
    """The first ``n`` events of ``trace``; its first event arrives at 0 ms."""
    return replace(trace, events=trace.events[:n])


class TestSimulationSetup:
    def test_power_table_covers_platform(self):
        setup = SimulationSetup()
        assert len(setup.power_table.active_w) == len(setup.system.configurations())


class TestSimulator:
    def test_run_reactive(self, simulator, small_trace):
        result = simulator.run_reactive(small_trace, EbsScheduler())
        assert result.scheduler_name == "EBS"
        assert len(result.outcomes) == len(small_trace)

    def test_run_scheme_names(self, simulator, small_trace, learner):
        for scheme in ("Interactive", "Ondemand", "EBS", "Oracle"):
            results = simulator.run_scheme([small_trace], scheme)
            assert len(results) == 1
            assert results[0].scheduler_name == scheme
        pes_results = simulator.run_scheme([small_trace], "PES", learner=learner)
        assert pes_results[0].scheduler_name == "PES"

    def test_pes_requires_learner(self, simulator, small_trace):
        with pytest.raises(ValueError):
            simulator.run_scheme([small_trace], "PES")

    def test_unknown_scheme_rejected(self, simulator, small_trace):
        with pytest.raises(ValueError):
            simulator.run_scheme([small_trace], "Magic")

    def test_pes_config_propagates(self, simulator, small_trace, learner):
        result = simulator.run_pes(small_trace, learner, PesConfig(confidence_threshold=1.0))
        assert result.commits == 0

    def test_normalised_energy_by_app(self, setup, catalog, small_trace):
        evaluator = ParallelEvaluator(setup=setup, catalog=catalog, jobs=1)
        aggregates = evaluator.compare([small_trace], ["Interactive", "EBS"])
        normalised = normalised_energy_by_app(aggregates, baseline="Interactive")
        app = small_trace.app_name
        assert normalised["Interactive"][app] == pytest.approx(1.0)
        assert 0.0 < normalised["EBS"][app] <= 1.05

    def test_normalised_energy_requires_baseline(self, setup, catalog, small_trace):
        evaluator = ParallelEvaluator(setup=setup, catalog=catalog, jobs=1)
        aggregates = evaluator.compare([small_trace], ["EBS"])
        with pytest.raises(KeyError):
            normalised_energy_by_app(aggregates, baseline="Interactive")


class TestSchedulerReuse:
    def test_baseline_scheduler_reused_across_sweeps(self, setup, catalog, small_trace):
        simulator = Simulator(setup=setup, catalog=catalog)
        first = simulator.run_scheme([small_trace], "EBS")
        scheduler = simulator._baseline_cache["EBS"]
        second = simulator.run_scheme([small_trace], "EBS")
        assert simulator._baseline_cache["EBS"] is scheduler
        assert first == second

    def test_pes_scheduler_cached_per_app(self, setup, catalog, generator, learner):
        simulator = Simulator(setup=setup, catalog=catalog)
        traces = [_head(generator.generate("cnn", seed=41), 8),
                  _head(generator.generate("cnn", seed=42), 8)]
        simulator.run_scheme(traces, "PES", learner=learner)
        assert set(simulator._pes_cache) == {"cnn"}

    def test_cached_pes_matches_fresh_scheduler_per_trace(
        self, setup, catalog, generator, learner
    ):
        traces = [_head(generator.generate("google", seed=51), 8),
                  _head(generator.generate("google", seed=52), 8)]
        cached = Simulator(setup=setup, catalog=catalog).run_scheme(
            traces, "PES", learner=learner
        )
        fresh = [
            Simulator(setup=setup, catalog=catalog).run_pes(trace, learner)
            for trace in traces
        ]
        assert cached == fresh

    @pytest.mark.parametrize("scheme", ["PES", "EBS"])
    def test_reused_scheduler_replays_each_trace_like_a_fresh_one(
        self, setup, catalog, generator, learner, scheme
    ):
        # One Simulator keeps one scheduler per app and resets it between
        # traces; whatever the scheduler keeps across a reset (PES's option
        # slots among it) must leave every session's payload unchanged.
        traces = [generator.generate("cnn", seed=seed) for seed in (61, 62, 63, 64)]
        reused = Simulator(setup=setup, catalog=catalog).run_scheme(traces, scheme, learner=learner)
        fresh = [
            Simulator(setup=setup, catalog=catalog).run_scheme([trace], scheme, learner=learner)[0]
            for trace in traces
        ]
        assert [encode_session(r) for r in reused] == [encode_session(r) for r in fresh]

    def test_pes_cache_invalidated_on_new_learner_or_config(
        self, setup, catalog, small_trace, learner
    ):
        from repro.core.pes import PesConfig

        simulator = Simulator(setup=setup, catalog=catalog)
        simulator.run_pes(small_trace, learner)
        first = simulator._pes_cache[small_trace.app_name][2]
        simulator.run_pes(small_trace, learner, PesConfig(confidence_threshold=0.9))
        second = simulator._pes_cache[small_trace.app_name][2]
        assert second is not first


class TestPesCacheKeying:
    """Regressions for the PES scheduler cache key (issue 3 satellite)."""

    def test_none_config_and_explicit_default_share_entry(
        self, setup, catalog, small_trace, learner
    ):
        simulator = Simulator(setup=setup, catalog=catalog)
        first = simulator._pes_scheduler(small_trace.app_name, learner, None)
        second = simulator._pes_scheduler(small_trace.app_name, learner, PesConfig())
        assert second is first, "None must be normalised to the default PesConfig"

    def test_equal_retrained_learner_reuses_scheduler(
        self, setup, catalog, small_trace, learner
    ):
        import copy

        simulator = Simulator(setup=setup, catalog=catalog)
        first = simulator._pes_scheduler(small_trace.app_name, learner, None)
        retrained = copy.deepcopy(learner)
        assert retrained is not learner and retrained == learner
        second = simulator._pes_scheduler(small_trace.app_name, retrained, None)
        assert second is first, "an equal learner must hit the cache"

    def test_unequal_config_still_rebuilds(self, setup, catalog, small_trace, learner):
        simulator = Simulator(setup=setup, catalog=catalog)
        first = simulator._pes_scheduler(small_trace.app_name, learner, None)
        second = simulator._pes_scheduler(
            small_trace.app_name, learner, PesConfig(confidence_threshold=0.9)
        )
        assert second is not first


class TestNormalisedEnergyWarning:
    def test_zero_energy_baseline_app_warns_instead_of_silent_drop(self):
        def aggregates_of(session: SessionResult):
            sweep = StreamingSweepAggregator()
            sweep.add(_session_fold(session), session.app_name)
            return sweep.finalize()

        empty = SessionResult(app_name="ghost", scheduler_name="Interactive")
        empty_ebs = SessionResult(app_name="ghost", scheduler_name="EBS")
        with pytest.warns(UserWarning, match="ghost"):
            normalised = normalised_energy_by_app(
                {"Interactive": aggregates_of(empty), "EBS": aggregates_of(empty_ebs)},
                baseline="Interactive",
            )
        assert normalised == {"Interactive": {}, "EBS": {}}
