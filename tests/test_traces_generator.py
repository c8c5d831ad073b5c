"""Unit tests for the synthetic user-session generator."""

import pickle

import numpy as np
import pytest

from repro.traces.generator import (
    DEFAULT_BEHAVIOR_WEIGHTS,
    SessionConfig,
    TraceGenerator,
    UserBehaviorModel,
    substream_seeds,
)
from repro.traces.session_state import SessionState
from repro.traces.workload import INTERACTION_WORKLOADS, WorkloadModel
from repro.webapp.apps import AppCatalog
from repro.webapp.events import EventType, Interaction, interaction_of


@pytest.fixture(scope="module")
def catalog():
    return AppCatalog()


@pytest.fixture(scope="module")
def generator(catalog):
    return TraceGenerator(catalog=catalog)


class TestSessionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SessionConfig(target_duration_ms=0)
        with pytest.raises(ValueError):
            SessionConfig(min_events=0)
        with pytest.raises(ValueError):
            SessionConfig(min_events=50, max_events=10)
        with pytest.raises(ValueError):
            SessionConfig(min_gap_ms=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            # Each was accepted: a negative or NaN think median gave NaN
            # think times that ``max`` clamped to the minimum gap, and a NaN
            # duration ran every session to ``max_events``.
            ("think_tap_ms", -1.0),
            ("think_tap_ms", float("nan")),
            ("think_after_load_ms", 0.0),
            ("move_burst_gap_ms", float("inf")),
            ("think_sigma", float("nan")),
            ("think_sigma", -0.1),
            ("target_duration_ms", float("nan")),
            ("min_gap_ms", float("nan")),
            ("navigation_probability", 2.0),
            ("navigation_probability", float("nan")),
        ],
    )
    def test_bad_values_are_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"SessionConfig.{field}"):
            SessionConfig(**{field: value})

    def test_think_log_medians_are_the_logs_the_draws_used(self):
        config = SessionConfig()
        assert config.think_log_medians[None, EventType.SCROLL] == np.log(config.move_start_gap_ms)
        assert config.think_log_medians[EventType.LOAD, EventType.SCROLL] == np.log(config.think_after_load_ms)
        assert config.think_log_medians[EventType.SCROLL, EventType.TOUCHMOVE] == np.log(config.move_burst_gap_ms)
        assert config.think_log_medians[EventType.SCROLL, EventType.CLICK] == np.log(config.think_tap_after_move_ms)
        assert config.think_log_medians[EventType.SUBMIT, EventType.CLICK] == np.log(config.think_tap_after_tap_ms)
        assert config.think_log_medians[None, EventType.CLICK] == np.log(config.think_tap_ms)
        assert config.think_log_medians[EventType.CLICK, EventType.LOAD] == np.log(config.think_tap_ms)


class TestWorkloadParamsCoverage:
    def test_a_mapping_without_an_interaction_is_rejected_at_construction(self, catalog):
        # It used to fail mid-trace with a bare KeyError(<Interaction.MOVE: 'move'>).
        partial = {
            interaction: params
            for interaction, params in INTERACTION_WORKLOADS.items()
            if interaction is not Interaction.MOVE
        }
        with pytest.raises(ValueError, match="workload_params has no entry for the 'move' interaction"):
            TraceGenerator(catalog=catalog, workload_params=partial)
        with pytest.raises(ValueError, match="'move'"):
            WorkloadModel(catalog.get("cnn"), params=partial)


class TestBehaviorModel:
    def test_scores_only_for_candidates(self, catalog):
        model = UserBehaviorModel(catalog.get("cnn"))
        state = SessionState.fresh(catalog.get("cnn"))
        scored = model.scores(state.features(), {EventType.SCROLL, EventType.CLICK})
        assert set(scored) == {EventType.SCROLL, EventType.CLICK}

    def test_load_forced_after_navigation(self, catalog):
        model = UserBehaviorModel(catalog.get("cnn"))
        state = SessionState.fresh(catalog.get("cnn"))
        state.apply_event(EventType.CLICK, "cnn-nav-0")
        assert model.next_event_type(state, np.random.default_rng(0)) is EventType.LOAD

    def test_zero_entropy_is_deterministic(self, catalog):
        profile = catalog.get("slashdot")
        model = UserBehaviorModel(profile)
        state = SessionState.fresh(profile)
        choices = {model.next_event_type(state, np.random.default_rng(s)) for s in range(20)}
        # slashdot's entropy is 0.03, so almost every draw follows the pattern.
        assert len(choices) <= 2

    def test_weights_cover_all_event_types(self):
        assert set(DEFAULT_BEHAVIOR_WEIGHTS) == set(EventType)


class TestGeneratedTraces:
    def test_deterministic_given_seed(self, generator):
        a = generator.generate("ebay", seed=123)
        b = generator.generate("ebay", seed=123)
        assert [e.event_type for e in a] == [e.event_type for e in b]
        assert [e.arrival_ms for e in a] == pytest.approx([e.arrival_ms for e in b])

    def test_different_seeds_differ(self, generator):
        a = generator.generate("ebay", seed=1)
        b = generator.generate("ebay", seed=2)
        assert [e.event_type for e in a] != [e.event_type for e in b] or [e.arrival_ms for e in a] != [e.arrival_ms for e in b]

    def test_starts_with_load(self, generator):
        trace = generator.generate("cnn", seed=5)
        assert trace[0].event_type is EventType.LOAD
        assert trace[0].arrival_ms == 0.0

    def test_arrivals_monotone_and_bounded(self, generator):
        trace = generator.generate("cnn", seed=6)
        arrivals = [e.arrival_ms for e in trace]
        assert arrivals == sorted(arrivals)
        assert len(trace) <= generator.session.max_events

    def test_navigating_taps_followed_by_load(self, generator):
        trace = generator.generate("amazon", seed=9)
        for previous, current in zip(trace, trace.events[1:]):
            if previous.navigates:
                assert current.event_type is EventType.LOAD

    def test_loads_only_at_start_or_after_navigation(self, generator):
        trace = generator.generate("amazon", seed=10)
        for previous, current in zip(trace, trace.events[1:]):
            if current.event_type is EventType.LOAD:
                assert previous.navigates

    def test_session_statistics_match_paper_scale(self, generator, catalog):
        """Sessions land in the published ballpark: tens of events over
        roughly two minutes, mixing all three interaction classes."""
        lengths, durations = [], []
        interactions = {kind: 0 for kind in Interaction}
        for app in ("cnn", "google", "slashdot", "amazon"):
            for seed in range(2):
                trace = generator.generate(app, seed=seed)
                lengths.append(len(trace))
                durations.append(trace.duration_ms)
                for event in trace:
                    interactions[interaction_of(event.event_type)] += 1
        assert 15 <= float(np.mean(lengths)) <= 60
        assert 60_000 <= float(np.mean(durations)) <= 130_000
        assert all(count > 0 for count in interactions.values())

    def test_generate_many_covers_apps(self, generator):
        traces = generator.generate_many(["cnn", "bbc"], 2, base_seed=10)
        assert len(traces) == 4
        assert {t.app_name for t in traces} == {"cnn", "bbc"}

    def test_substream_seeds_deterministic_and_distinct(self):
        seeds = substream_seeds(42, 64)
        assert seeds == substream_seeds(42, 64)
        assert len(set(seeds)) == 64
        assert seeds != substream_seeds(43, 64)
        assert substream_seeds(42, 0) == []

    def test_generate_many_independent_streams_reproducible(self, generator):
        a = generator.generate_many(["cnn", "bbc"], 2, base_seed=5, independent_streams=True)
        b = generator.generate_many(["cnn", "bbc"], 2, base_seed=5, independent_streams=True)
        assert [t.seed for t in a] == [t.seed for t in b]
        assert [[e.event_type for e in t] for t in a] == [[e.event_type for e in t] for t in b]
        # Each trace is regenerable from its recorded substream seed alone.
        first = list(a)[0]
        regenerated = generator.generate(first.app_name, seed=first.seed)
        assert [e.event_type for e in regenerated] == [e.event_type for e in first]

    def test_recipes_equal_generate_many_with_independent_streams(self, generator):
        recipes = generator.recipes(["cnn", "google"], 3, base_seed=11, independent_streams=True)
        generated = list(
            generator.generate_many(["cnn", "google"], 3, base_seed=11, independent_streams=True)
        )
        assert len(recipes) == len(generated) == 6
        for index, trace in enumerate(generated):
            assert recipes[index] == trace

    def test_recipes_len_and_pickle_generate_nothing(self, generator, monkeypatch):
        recipes = generator.recipes(["cnn", "bbc"], 2, base_seed=3, independent_streams=True)
        calls = []
        monkeypatch.setattr(TraceGenerator, "generate", lambda *args, **kwargs: calls.append(args))
        assert len(recipes) == 4
        restored = pickle.loads(pickle.dumps(recipes))
        assert restored == recipes
        assert len(restored) == 4
        assert calls == []

    def test_move_bursts_exist(self, generator):
        """Consecutive move events with sub-second gaps (the interference
        source) appear in generated sessions."""
        found_burst = False
        for seed in range(6):
            trace = generator.generate("ebay", seed=seed)
            for previous, current in zip(trace, trace.events[1:]):
                if (
                    interaction_of(previous.event_type) is Interaction.MOVE
                    and interaction_of(current.event_type) is Interaction.MOVE
                    and current.arrival_ms - previous.arrival_ms < 1000.0
                ):
                    found_burst = True
        assert found_burst
