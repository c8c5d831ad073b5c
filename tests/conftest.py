"""Shared fixtures for the test suite.

Expensive artefacts (trained predictor, generated trace sets, simulation
setup) are session-scoped so the several hundred tests that need them do
not regenerate them.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.predictor.training import PredictorTrainer
from repro.runtime.simulator import SimulationSetup, Simulator
from repro.traces.generator import TraceGenerator
from repro.webapp.apps import AppCatalog


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
def training_traces(generator: TraceGenerator, catalog: AppCatalog):
    seen = [p.name for p in catalog.seen()]
    return generator.generate_many(seen, 3, base_seed=0)


@pytest.fixture(scope="session")
def trained(training_traces, catalog: AppCatalog):
    trainer = PredictorTrainer(catalog=catalog, max_iterations=1200)
    return trainer.train(training_traces)


@pytest.fixture(scope="session")
def learner(trained):
    return trained.learner


@pytest.fixture(scope="session")
def sample_trace(generator: TraceGenerator):
    """One moderately sized cnn session used by engine/scheduler tests."""
    return generator.generate("cnn", seed=4242)


@pytest.fixture(scope="session")
def small_trace(generator: TraceGenerator):
    """A short google session for faster per-test simulations."""
    trace = generator.generate("google", seed=99)
    return replace(trace, events=trace.events[:12])
