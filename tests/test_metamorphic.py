"""Metamorphic relations between scheduling schemes.

A byte-identity test shows that a result did not change, not that it is
right.  A relation between two schemes can show more without a second,
naive engine: each test here replays the same sessions under two schemes
whose results the paper's design ties together, and requires the tie.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.predictor.hybrid import HybridEventPredictor
from repro.hardware.platforms import exynos_5410, tegra_parker
from repro.hardware.thermal import get_thermal_model
from repro.runtime.simulator import SimulationSetup, Simulator
from repro.webapp.apps import SEEN_APPS

#: Fields in which a PES replay may differ from EBS even with no predictions.
PES_ONLY_FIELDS = frozenset({"scheduler_name", "prediction_rounds", "pfb_size_history"})


@pytest.fixture(scope="module")
def seen_traces(generator):
    return [generator.generate(app, seed=900_000 + i) for i, app in enumerate(SEEN_APPS)]


@pytest.mark.parametrize("platform", [exynos_5410, tegra_parker], ids=["exynos5410", "tegra_parker"])
@pytest.mark.parametrize("thermal", [None, "cramped_chassis"], ids=["no-thermal", "cramped_chassis"])
def test_pes_without_predictions_equals_ebs(
    monkeypatch, catalog, learner, seen_traces, platform, thermal
):
    """A PES whose predictor never predicts falls back to EBS on every event.

    Fault-free only: a fault session seeds its stream with the scheme name,
    so under faults PES and EBS draw different faults.
    """
    monkeypatch.setattr(HybridEventPredictor, "predict_sequence", lambda self: [])
    setup = SimulationSetup(
        system=platform(), thermal=None if thermal is None else get_thermal_model(thermal)
    )
    simulator = Simulator(setup=setup, catalog=catalog)
    pes = simulator.run_scheme(seen_traces, "PES", learner=learner)
    ebs = simulator.run_scheme(seen_traces, "EBS")
    compared = [f.name for f in dataclasses.fields(ebs[0]) if f.name not in PES_ONLY_FIELDS]
    for pes_result, ebs_result in zip(pes, ebs, strict=True):
        for name in compared:
            assert getattr(pes_result, name) == getattr(ebs_result, name), (
                f"{ebs_result.app_name}: {name}"
            )
        assert pes_result.scheduler_name == "PES"
