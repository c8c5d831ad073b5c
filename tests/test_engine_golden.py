"""Golden-artefact differential test for the three replay engines.

``tests/fixtures/ENGINE_golden.json`` pins every scheme — including PES,
the Oracle and Ondemand, which the scenario and fleet goldens never run —
on a small fixed-seed grid: all five schemes x thermal {none,
``cramped_chassis``} x faults {none, ``chaos``, ``rail_brownout``}, on four
``cnn``/``google`` traces.  The chassis runs at a 40 C ambient: at the
default 25 C these short sessions never reach the first throttle step, and
the cap-engaged planning paths would go unpinned.  Each session is stored
as its session-level fields plus a SHA-256 over its per-event outcomes as
rows of named fields, so any drift in any engine path (reactive replay, PES
commit/squash/fallback, Oracle windows, the thermal and fault seams) fails
loudly while the fixture stays small.

The PES learner is self-contained (one training trace per seen app, 300
iterations), so the fixture does not move when the shared test learner is
retuned.  When a change intentionally moves the numbers, regenerate and
commit::

    PYTHONPATH=src python tests/test_engine_golden.py --regenerate

``--regenerate`` prints how far each field moved (``tests/golden.py``'s
drift report) before it writes; a regenerating commit quotes that report.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from pathlib import Path

from repro.core.predictor.training import PredictorTrainer
from repro.faults import get_fault_preset
from repro.hardware.thermal import ThermalModel, get_thermal_model
from repro.runtime.metrics import EventOutcome, SessionResult
from repro.runtime.simulator import KNOWN_SCHEMES, SimulationSetup, Simulator
from repro.traces.generator import TraceGenerator
from repro.webapp.apps import AppCatalog

from golden import assert_matches_golden, regenerate_main

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "ENGINE_golden.json"

THERMAL_MODELS: tuple[str | None, ...] = (None, "cramped_chassis")
THERMAL_AMBIENT_C = 40.0
FAULT_PRESETS: tuple[str | None, ...] = (None, "chaos", "rail_brownout")
TRACES: tuple[tuple[str, int], ...] = (
    ("cnn", 8101),
    ("cnn", 8102),
    ("google", 8103),
    ("google", 8104),
)


def outcome_row(outcome: EventOutcome) -> dict:
    """One outcome as a row of named fields, the view the digest is taken over."""
    return {
        "index": outcome.index,
        "event_type": outcome.event_type.value,
        "arrival_ms": outcome.arrival_ms,
        "start_ms": outcome.start_ms,
        "finish_ms": outcome.finish_ms,
        "display_ms": outcome.display_ms,
        "qos_target_ms": outcome.qos_target_ms,
        "active_energy_mj": outcome.active_energy_mj,
        "config_label": outcome.config_label,
        "speculative": outcome.speculative,
        "mispredicted": outcome.mispredicted,
        "queue_delay_ms": outcome.queue_delay_ms,
    }


def session_payload(result: SessionResult) -> dict:
    """A session's fields, with the outcomes replaced by a digest of their rows.

    Built here field by field rather than from ``SessionResult.to_dict()``,
    so the fixture pins the replay, not the shard codec.
    """
    outcomes = json.dumps([outcome_row(o) for o in result.outcomes], sort_keys=True)
    return {
        "app_name": result.app_name,
        "scheduler_name": result.scheduler_name,
        "idle_energy_mj": result.idle_energy_mj,
        "wasted_energy_mj": result.wasted_energy_mj,
        "wasted_time_ms": result.wasted_time_ms,
        "mispredictions": result.mispredictions,
        "commits": result.commits,
        "predictions_made": result.predictions_made,
        "prediction_rounds": result.prediction_rounds,
        "pfb_size_history": [[at_ms, size] for at_ms, size in result.pfb_size_history],
        "duration_ms": result.duration_ms,
        "thermal": None if result.thermal is None else result.thermal.to_dict(),
        "faults": None if result.faults is None else result.faults.to_dict(),
        "outcomes_sha256": hashlib.sha256(outcomes.encode()).hexdigest(),
    }


def thermal_model(name: str | None) -> ThermalModel | None:
    """The named chassis curve, warmed to the grid's ambient."""
    if name is None:
        return None
    return dataclasses.replace(get_thermal_model(name), ambient_c=THERMAL_AMBIENT_C)


@functools.cache
def replay_cells() -> dict[str, list[SessionResult]]:
    """Replay the golden grid once per process: each cell's sessions, keyed
    ``scheme/thermal/faults``."""
    catalog = AppCatalog()
    generator = TraceGenerator(catalog=catalog)
    seen = [profile.name for profile in catalog.seen()]
    learner = (
        PredictorTrainer(catalog=catalog, max_iterations=300)
        .train(generator.generate_many(seen, 1, base_seed=0))
        .learner
    )
    traces = [generator.generate(app, seed=seed) for app, seed in TRACES]
    cells: dict[str, list[SessionResult]] = {}
    for thermal in THERMAL_MODELS:
        for faults in FAULT_PRESETS:
            setup = SimulationSetup(
                thermal=thermal_model(thermal),
                faults=None if faults is None else get_fault_preset(faults),
            )
            simulator = Simulator(setup=setup, catalog=catalog)
            for scheme in KNOWN_SCHEMES:
                cells[f"{scheme}/{thermal or 'none'}/{faults or 'none'}"] = (
                    simulator.run_scheme(traces, scheme, learner=learner)
                )
    return cells


def replay_payload() -> dict:
    """Replay the golden grid and return its JSON payload."""
    cells = {
        key: [session_payload(result) for result in results]
        for key, results in replay_cells().items()
    }
    payload = {"traces": [list(trace) for trace in TRACES], "cells": cells}
    return json.loads(json.dumps(payload))


class TestEngineGoldenArtefact:
    def test_fixture_covers_the_grid(self):
        payload = json.loads(GOLDEN_PATH.read_text())
        assert len(payload["cells"]) == (
            len(KNOWN_SCHEMES) * len(THERMAL_MODELS) * len(FAULT_PRESETS)
        )
        for key, sessions in payload["cells"].items():
            assert len(sessions) == len(TRACES), key
            assert {s["scheduler_name"] for s in sessions} == {key.split("/")[0]}

    def test_replay_matches_golden_bit_for_bit(self):
        assert_matches_golden(GOLDEN_PATH, replay_payload(), Path(__file__).name)


if __name__ == "__main__":  # pragma: no cover - developer tool
    regenerate_main(__doc__, GOLDEN_PATH, replay_payload)
