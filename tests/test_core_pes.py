"""Unit tests for the PesScheduler facade."""

import pytest

from repro.core.control.control_unit import MatchResult
from repro.core.pes import PesConfig, PesScheduler
from repro.hardware.dvfs import DvfsModel
from repro.scenarios import ScenarioSpec
from repro.traces.trace import TraceEvent
from repro.webapp.events import EventType


@pytest.fixture
def pes(learner, catalog, setup):
    return PesScheduler.create(
        learner=learner,
        profile=catalog.get("cnn"),
        system=setup.system,
        power_table=setup.power_table,
    )


def event(index: int, event_type: EventType, arrival: float, node: str = "cnn-body") -> TraceEvent:
    return TraceEvent(
        index=index,
        event_type=event_type,
        node_id=node,
        arrival_ms=arrival,
        workload=DvfsModel(10.0, 150.0),
    )


def open_round(pes: PesScheduler, trace) -> None:
    """Observe ``trace`` until :meth:`PesScheduler.start_round` opens a
    non-empty round (a bare ``LOAD`` on ``cnn-body`` predicts nothing)."""
    for trace_event in trace:
        pes.observe_event(trace_event)
        pes.start_round(trace_event.arrival_ms)
        if pes.control.pending:
            return
    pytest.fail("no state of the trace opens a non-empty round")


class TestPesConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PesConfig(confidence_threshold=0.0)
        with pytest.raises(ValueError):
            PesConfig(max_prediction_degree=0)
        with pytest.raises(ValueError):
            PesConfig(disable_after_mispredictions=0)

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("arrival_conservatism", 0.0, "conservatism must be in"),
            ("arrival_conservatism", 1.5, "conservatism must be in"),
            ("arrival_conservatism", float("nan"), "conservatism must be in"),
        ],
    )
    def test_replay_only_values_rejected_at_construction(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            PesConfig(**{field: value})

    def test_scenario_payload_with_bad_pes_config_fails_to_load(self):
        payload = ScenarioSpec(name="x", pes=PesConfig()).to_dict()
        payload["pes"]["arrival_conservatism"] = 1.5
        with pytest.raises(ValueError, match="conservatism"):
            ScenarioSpec.from_dict(payload)

    def test_scenario_payload_with_nan_conservatism_fails_to_load(self):
        payload = ScenarioSpec(name="x", pes=PesConfig()).to_dict()
        payload["pes"]["arrival_conservatism"] = float("nan")
        with pytest.raises(ValueError, match="conservatism"):
            ScenarioSpec.from_dict(payload)

    def test_boundary_values_accepted(self):
        config = PesConfig(confidence_threshold=1.0, arrival_conservatism=1.0)
        assert config.confidence_threshold == 1.0
        assert config.arrival_conservatism == 1.0

    def test_defaults_match_paper(self):
        config = PesConfig()
        assert config.confidence_threshold == pytest.approx(0.70)
        assert config.max_prediction_degree == 12
        assert config.disable_after_mispredictions == 3
        assert config.use_dom_analysis


class TestPesScheduler:
    def test_create_wires_components(self, pes):
        assert pes.name == "PES"
        assert pes.control.prediction_enabled
        assert pes.fallback.name == "EBS"
        assert pes.predictor.profile.name == "cnn"

    def test_config_threshold_propagates_to_learner(self, learner, catalog, setup):
        pes = PesScheduler.create(
            learner=learner,
            profile=catalog.get("cnn"),
            system=setup.system,
            power_table=setup.power_table,
            config=PesConfig(confidence_threshold=0.9, max_prediction_degree=3),
        )
        assert pes.predictor.learner.confidence_threshold == pytest.approx(0.9)
        assert pes.predictor.learner.max_degree == 3

    def test_round_lifecycle_with_match(self, pes, sample_trace):
        open_round(pes, sample_trace)
        round_ = list(pes.control.pending)
        assert round_
        assert pes.control.rounds >= 1
        head, head_assignment = round_[0]
        assert pes.control.validate(head.event_type) is MatchResult.MATCH
        assert pes.control.confirm_match(1500.0) is head_assignment
        assert pes.control.pending == round_[1:]
        assert pes.control.commits == 1

    def test_round_pairs_each_prediction_with_its_assignment(self, pes, sample_trace):
        open_round(pes, sample_trace)
        assert pes.control.pending
        for position, (prediction, assignment) in enumerate(pes.control.pending):
            assert assignment.spec.label == f"predicted-{position}-{prediction.event_type.value}"

    def test_mispredict_clears_round(self, pes, sample_trace):
        open_round(pes, sample_trace)
        head, _ = pes.control.pending[0]
        wrong = EventType.SUBMIT if head.event_type != EventType.SUBMIT else EventType.LOAD
        assert pes.control.validate(wrong) is MatchResult.MISPREDICT
        pes.control.handle_mispredict(1500.0)
        assert not pes.control.pending
        assert pes.control.mispredictions == 1

    def test_cannot_start_round_while_pending(self, pes, sample_trace):
        open_round(pes, sample_trace)
        assert pes.control.pending
        with pytest.raises(RuntimeError):
            pes.start_round(sample_trace.events[-1].arrival_ms)

    def test_disabled_prediction_begins_an_empty_round(self, pes, sample_trace):
        pes.control.prediction_enabled = False
        for trace_event in sample_trace.events[:5]:
            pes.observe_event(trace_event)
            pes.start_round(trace_event.arrival_ms)
            assert not pes.control.pending
        assert pes.control.rounds == 0

    def test_record_execution_feeds_workload_estimator(self, pes):
        pes.record_execution(EventType.CLICK, DvfsModel(20.0, 300.0))
        assert pes.optimizer.workload_estimator.estimate(EventType.CLICK) == DvfsModel(20.0, 300.0)

    def test_observe_event_updates_arrival_estimator(self, pes):
        pes.observe_event(event(0, EventType.CLICK, 1000.0, node="cnn-menu-btn-0"))
        pes.observe_event(event(1, EventType.CLICK, 3000.0, node="cnn-menu-btn-0"))
        gap = pes.optimizer.arrival_estimator.expected_gap_ms(EventType.CLICK)
        assert gap == pytest.approx(2000.0 * pes.config.arrival_conservatism)

    def test_reset_restores_fresh_session(self, pes, sample_trace):
        open_round(pes, sample_trace)
        pes.control.confirm_match(sample_trace.events[-1].arrival_ms)
        pes.reset()
        assert not pes.control.pending
        assert pes.control.commits == 0
        assert pes.control.rounds == 0
        assert pes.control.prediction_enabled
        assert len(pes.predictor.state.history) == 0

    def test_dom_analysis_ablation_flag(self, learner, catalog, setup):
        pes = PesScheduler.create(
            learner=learner,
            profile=catalog.get("cnn"),
            system=setup.system,
            power_table=setup.power_table,
            config=PesConfig(use_dom_analysis=False),
        )
        assert not pes.predictor.use_dom_analysis
