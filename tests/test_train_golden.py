"""Golden-artefact test for the default PES learner.

``tests/fixtures/TRAIN_golden.json`` pins the learner that
``scenarios run`` trains by default (``ScenarioRunner``'s
``train_traces_per_app`` traces per seen app from ``train_seed``): the
dataset's size and class counts, the fitted softmax weights and the
calibrated temperature.  The scenario, fleet and engine goldens all run
with other (or no) learners, so without this fixture a change to the
softmax fit could move the default learner without any test noticing.

When a change intentionally moves the numbers, regenerate and commit::

    PYTHONPATH=src python tests/test_train_golden.py --regenerate

``--regenerate`` prints how far each field moved (``tests/golden.py``'s
drift report) before it writes; a regenerating commit quotes that report.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

from repro.core.predictor.training import PredictorTrainer, TrainingResult
from repro.scenarios import ScenarioRunner
from repro.traces.generator import TraceGenerator
from repro.traces.trace import TraceSet
from repro.webapp.apps import SEEN_APPS, AppCatalog

from golden import assert_matches_golden, regenerate_main

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "TRAIN_golden.json"


@functools.cache
def training_traces() -> TraceSet:
    """The default ``scenarios run`` training traces, generated once per process."""
    runner = ScenarioRunner()
    return TraceGenerator(catalog=AppCatalog()).generate_many(
        list(SEEN_APPS), runner.train_traces_per_app, base_seed=runner.train_seed
    )


@functools.cache
def training_dataset() -> tuple[np.ndarray, np.ndarray]:
    """The (features, labels) arrays the default learner is fitted on."""
    return PredictorTrainer(catalog=AppCatalog()).build_dataset(training_traces())


@functools.cache
def trained() -> TrainingResult:
    """The default learner, trained as ``ScenarioRunner.train_learner`` does."""
    return PredictorTrainer(catalog=AppCatalog()).train(training_traces())


def replay_payload() -> dict:
    """The learner's golden payload, round-tripped through JSON (float repr
    round-trips losslessly, so this does not mask drift)."""
    runner = ScenarioRunner()
    result = trained()
    model = result.learner.model
    payload = {
        "train_traces_per_app": runner.train_traces_per_app,
        "train_seed": runner.train_seed,
        "n_traces": result.n_traces,
        "n_samples": result.n_samples,
        "class_counts": result.class_counts,
        "temperature": model.temperature,
        "weights": model.weights.tolist(),
    }
    return json.loads(json.dumps(payload))


class TestTrainGoldenArtefact:
    def test_fixture_pins_the_scenario_runner_defaults(self):
        payload = json.loads(GOLDEN_PATH.read_text())
        runner = ScenarioRunner()
        assert payload["train_traces_per_app"] == runner.train_traces_per_app
        assert payload["train_seed"] == runner.train_seed
        assert payload["n_samples"] == sum(payload["class_counts"].values())
        assert len(payload["weights"]) == len(payload["class_counts"])

    def test_replay_matches_golden_bit_for_bit(self):
        assert_matches_golden(GOLDEN_PATH, replay_payload(), Path(__file__).name)


if __name__ == "__main__":  # pragma: no cover - developer tool
    regenerate_main(__doc__, GOLDEN_PATH, replay_payload)
