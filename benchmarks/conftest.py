"""Shared fixtures for the benchmark harness.

Each ``test_figXX_*.py`` module regenerates one table/figure of the paper.
The expensive artefacts — the trained predictor, the evaluation trace set,
and the aggregates of every trace replayed under every scheduling scheme —
are computed once per session here and shared; the ``benchmark`` fixture in
each module then measures the per-figure analysis step and the module
writes the regenerated rows/series to ``results/``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.predictor.training import PredictorTrainer
from repro.runtime.parallel import ParallelEvaluator
from repro.runtime.simulator import SimulationSetup, Simulator
from repro.traces.generator import TraceGenerator
from repro.webapp.apps import AppCatalog, SEEN_APPS, UNSEEN_APPS

#: Traces per application used for the headline evaluation figures.
EVAL_TRACES_PER_APP = 2
#: Traces per application used to train the predictor (seen apps only).
TRAIN_TRACES_PER_APP = 8

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def write_result(name: str, content: str) -> Path:
    """Persist a regenerated figure/table under ``results/``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(content + "\n")
    return path


@pytest.fixture(scope="session")
def catalog() -> AppCatalog:
    return AppCatalog()


@pytest.fixture(scope="session")
def generator(catalog: AppCatalog) -> TraceGenerator:
    return TraceGenerator(catalog=catalog)


@pytest.fixture(scope="session")
def setup() -> SimulationSetup:
    return SimulationSetup()


@pytest.fixture(scope="session")
def simulator(catalog: AppCatalog, setup: SimulationSetup) -> Simulator:
    return Simulator(setup=setup, catalog=catalog)


@pytest.fixture(scope="session")
def evaluator(catalog: AppCatalog, setup: SimulationSetup) -> ParallelEvaluator:
    """In-process matrix runs on the default setup."""
    return ParallelEvaluator(setup=setup, catalog=catalog, jobs=1)


@pytest.fixture(scope="session")
def training_traces(generator: TraceGenerator):
    return generator.generate_many(list(SEEN_APPS), TRAIN_TRACES_PER_APP, base_seed=0)


@pytest.fixture(scope="session")
def learner(training_traces, catalog: AppCatalog):
    return PredictorTrainer(catalog=catalog).train(training_traces).learner


@pytest.fixture(scope="session")
def evaluation_traces(generator: TraceGenerator):
    """Fresh (held-out) traces for every application, seen and unseen."""
    return generator.generate_many(
        list(SEEN_APPS) + list(UNSEEN_APPS), EVAL_TRACES_PER_APP, base_seed=500_000
    )


@pytest.fixture(scope="session")
def scheme_aggregates(evaluator: ParallelEvaluator, evaluation_traces, learner):
    """Every evaluation trace replayed under every scheme, aggregated overall
    and per app (Figs. 10-13)."""
    return evaluator.compare(
        evaluation_traces,
        ["Interactive", "Ondemand", "EBS", "PES", "Oracle"],
        learner=learner,
    )
