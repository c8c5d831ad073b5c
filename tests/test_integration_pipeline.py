"""End-to-end integration tests: generate → train → simulate → analyse.

These tests exercise the same pipeline the benchmark harness uses, on a
reduced workload so they stay fast, and assert the qualitative claims of
the paper rather than exact numbers.
"""

import pytest

from repro.analysis.event_types import EventCategory, category_distribution, classify_events
from repro.analysis.pareto import non_dominated_schemes, points_from_metrics
from repro.runtime.parallel import ParallelEvaluator
from repro.schedulers.ebs import EbsScheduler


@pytest.fixture(scope="module")
def evaluation_traces(generator):
    apps = ["cnn", "google", "ebay", "slashdot"]
    return [generator.generate(app, seed=60_000 + i) for i, app in enumerate(apps)]


@pytest.fixture(scope="module")
def scheme_aggregates(setup, catalog, evaluation_traces, learner):
    return ParallelEvaluator(setup=setup, catalog=catalog, jobs=1).compare(
        evaluation_traces, ["Interactive", "EBS", "PES", "Oracle"], learner=learner
    )


class TestEndToEnd:
    def test_every_scheme_covers_every_event(self, scheme_aggregates, evaluation_traces):
        total_events = sum(len(t) for t in evaluation_traces)
        for aggregates in scheme_aggregates.values():
            assert aggregates.overall.n_sessions == len(evaluation_traces)
            assert aggregates.overall.n_events == total_events
            assert {
                app: metrics.n_events for app, metrics in aggregates.per_app.items()
            } == {t.app_name: len(t) for t in evaluation_traces}

    def test_energy_ordering_matches_paper(self, scheme_aggregates):
        """Interactive > EBS > PES >= Oracle in total energy."""
        energy = {
            scheme: aggregates.overall.total_energy_mj
            for scheme, aggregates in scheme_aggregates.items()
        }
        assert energy["Interactive"] > energy["EBS"]
        assert energy["EBS"] > energy["PES"]
        assert energy["PES"] >= energy["Oracle"] * 0.999

    def test_qos_ordering_matches_paper(self, scheme_aggregates):
        """PES substantially reduces QoS violations; the oracle removes them."""
        violation = {
            scheme: aggregates.overall.qos_violation_rate
            for scheme, aggregates in scheme_aggregates.items()
        }
        assert violation["Oracle"] == pytest.approx(0.0)
        assert violation["PES"] < violation["EBS"]
        assert violation["PES"] < violation["Interactive"]

    def test_pes_pareto_dominates_reactive_schemes(self, scheme_aggregates):
        metrics = {
            scheme: aggregates.overall
            for scheme, aggregates in scheme_aggregates.items()
            if scheme != "Oracle"
        }
        points = points_from_metrics(metrics, baseline="Interactive")
        assert "PES" in non_dominated_schemes(points)

    def test_predictor_online_accuracy_is_high(self, scheme_aggregates):
        pes = scheme_aggregates["PES"].overall
        assert pes.prediction_accuracy > 0.75

    def test_event_type_distribution_shows_optimisation_room(
        self, simulator, evaluation_traces, setup
    ):
        """Fig. 3: a meaningful fraction of events under EBS are Type I-III."""
        non_benign = 0
        total = 0
        for trace in evaluation_traces:
            result = simulator.run_reactive(trace, EbsScheduler())
            classified = classify_events(trace, result, setup.system, setup.power_table)
            distribution = category_distribution(classified)
            non_benign += (1 - distribution[EventCategory.TYPE_IV]) * len(classified)
            total += len(classified)
        assert 0.05 < non_benign / total < 0.7

    def test_results_are_reproducible(self, simulator, evaluation_traces, learner):
        first = simulator.run_pes(evaluation_traces[0], learner)
        second = simulator.run_pes(evaluation_traces[0], learner)
        assert first.total_energy_mj == pytest.approx(second.total_energy_mj)
        assert first.qos_violation_rate == pytest.approx(second.qos_violation_rate)
        assert first.commits == second.commits
