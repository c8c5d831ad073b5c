"""Golden digest of the generated traces that three commands replay.

``tests/fixtures/TRACES_golden.json`` pins, per command, every distinct
trace the command generates, as a SHA-256 over each event's type, node id,
``navigates`` flag and the bits of its arrival time and workload floats:

* ``fleet run --fleet smoke --size 120`` (the ``fleet_reactive`` workload),
* ``scenarios run --matrix default`` (its sweeps and the PES learner's
  training traces),
* ``train --traces-per-app 6`` (training and evaluation traces).

The other goldens pin what the replays make of the traces; this one pins
the traces themselves, so a change to the generator that moves a single
RNG draw or float fails here first, with the command and trace named.

Each command's traces are enumerated the way the command builds them, from
the same public builders, without replaying anything.  When a change
intentionally moves the traces, regenerate and commit::

    PYTHONPATH=src python tests/test_traces_golden.py --regenerate
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct
from pathlib import Path

from repro.fleet import DevicePopulation, get_fleet_preset
from repro.scenarios import ScenarioRunner, get_matrix
from repro.traces.generator import TraceGenerator
from repro.traces.trace import Trace
from repro.webapp.apps import SEEN_APPS, UNSEEN_APPS

from golden import assert_matches_golden, regenerate_main

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "TRACES_golden.json"

#: ``fleet run --fleet smoke --size`` of the ``fleet_reactive`` workload.
FLEET_SIZE = 120
#: ``scenarios run --train-traces-per-app`` default.
MATRIX_TRAIN_TRACES_PER_APP = 4
#: ``train --traces-per-app 6``, with the command's default ``--eval-traces``
#: and ``--seed``.
TRAIN_TRACES_PER_APP = 6
TRAIN_EVAL_TRACES = 2


def trace_digest(trace: Trace) -> str:
    """SHA-256 of a trace: its identity, then every event's fields, floats by their bits."""
    digest = hashlib.sha256()
    digest.update(f"{trace.app_name}\0{trace.user_id}\0{trace.seed}\0".encode())
    for event in trace.events:
        digest.update(
            f"{event.index}\0{event.event_type.value}\0{event.node_id}\0{int(event.navigates)}\0".encode()
        )
        digest.update(
            struct.pack(
                "<3d", event.arrival_ms, event.workload.tmem_ms, event.workload.ndep_mcycles
            )
        )
    return digest.hexdigest()


def _sweep_traces(specs) -> list[tuple[TraceGenerator, str, int]]:
    """Every ``(generator, app, seed)`` recipe the specs' sweeps replay, in order."""
    runner = ScenarioRunner(share_setups=True)
    recipes = []
    for spec in specs:
        sweep = runner.build_sweep(spec)
        recipes.extend((sweep.traces.generator, app, seed) for app, seed in sweep.traces.specs)
    return recipes


def _batch(traces_per_app: int, apps, base_seed: int) -> list[tuple[TraceGenerator, str, int]]:
    """The recipes of ``TraceGenerator().generate_many(apps, traces_per_app, base_seed=...)``."""
    recipes = TraceGenerator().recipes(list(apps), traces_per_app, base_seed=base_seed)
    return [(recipes.generator, app, seed) for app, seed in recipes.specs]


def command_recipes() -> dict[str, list[tuple[TraceGenerator, str, int]]]:
    """Per command, the recipes of every trace it generates."""
    fleet = dataclasses.replace(get_fleet_preset("smoke"), size=FLEET_SIZE)
    matrix = get_matrix("default")
    return {
        "fleet run --fleet smoke --size 120": _sweep_traces(
            DevicePopulation(fleet).scenario_specs()
        ),
        "scenarios run --matrix default": (
            _batch(MATRIX_TRAIN_TRACES_PER_APP, SEEN_APPS, 0) + _sweep_traces(matrix.expand())
        ),
        "train --traces-per-app 6": (
            _batch(TRAIN_TRACES_PER_APP, SEEN_APPS, 0)
            + _batch(TRAIN_EVAL_TRACES, list(SEEN_APPS) + list(UNSEEN_APPS), 900_000)
        ),
    }


def replay_payload() -> dict:
    """Generate each command's distinct traces and digest them."""
    commands = {}
    for command, recipes in command_recipes().items():
        seen: set = set()
        rows = []
        whole = hashlib.sha256()
        for generator, app, seed in recipes:
            # A recipe is defined by the generator's value, the app and the seed.
            key = (generator.session, repr(generator.workload_params), app, seed)
            if key in seen:
                continue
            seen.add(key)
            trace = generator.generate(app, seed=seed)
            digest = trace_digest(trace)
            whole.update(bytes.fromhex(digest))
            rows.append({"app": app, "seed": seed, "events": len(trace), "sha256": digest})
        commands[command] = {
            "n_traces": len(rows),
            "n_events": sum(row["events"] for row in rows),
            "sha256": whole.hexdigest(),
            "traces": rows,
        }
    return {"commands": commands}


class TestTracesGolden:
    def test_fixture_covers_the_three_commands(self):
        payload = json.loads(GOLDEN_PATH.read_text())
        assert list(payload["commands"]) == list(command_recipes())
        for entry in payload["commands"].values():
            assert entry["n_traces"] == len(entry["traces"]) > 0
            assert entry["n_events"] == sum(row["events"] for row in entry["traces"])

    def test_the_digest_reads_every_pinned_field(self):
        trace = TraceGenerator().generate("cnn", seed=7)
        event = trace.events[3]
        changed = [
            event._replace(arrival_ms=event.arrival_ms + 1e-9),
            event._replace(navigates=not event.navigates),
            event._replace(node_id=event.node_id + "x"),
            event._replace(
                workload=event.workload._replace(
                    ndep_mcycles=event.workload.ndep_mcycles * (1 + 2**-52)
                ),
            ),
        ]
        digest = trace_digest(trace)
        for variant in changed:
            events = list(trace.events)
            events[3] = variant
            assert trace_digest(dataclasses.replace(trace, events=events)) != digest

    def test_traces_match_golden_bit_for_bit(self):
        assert_matches_golden(GOLDEN_PATH, replay_payload(), Path(__file__).name)


if __name__ == "__main__":  # pragma: no cover - developer tool
    regenerate_main(__doc__, GOLDEN_PATH, replay_payload)
