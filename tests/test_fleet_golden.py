"""Golden-artefact differential test for the fleet-population pipeline.

``tests/fixtures/FLEET_golden.json`` is a committed, fixed-seed evaluation
of a small device population spanning every fleet axis (platform variants,
regimes, app mixes, thermal curves x ambients, a fault preset).  This test
re-runs that fleet and compares the full ``FLEET_*.json`` payload — the
sampled devices, every per-device metric, the population percentiles, and
the per-slice win/loss table — against the fixture, so any drift in
sampling *or* simulation *or* aggregation fails loudly instead of shipping
silently.  It extends the ``SCENARIOS_golden.json`` discipline one layer
up: that fixture pins the per-cell numbers, this one pins the population
statistics computed over them.

When a change intentionally moves the numbers, regenerate and commit::

    PYTHONPATH=src python tests/test_fleet_golden.py --regenerate

``--regenerate`` prints how far each field moved (``tests/golden.py``'s
drift report) before it writes; a regenerating commit quotes that report.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.fleet import FleetRunner, FleetSpec, fleet_to_payload

from golden import assert_matches_golden, regenerate_main

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "FLEET_golden.json"


def golden_fleet() -> FleetSpec:
    """The committed population: small, PES-free, spanning every axis."""
    return FleetSpec(
        name="golden",
        size=8,
        seed=777_000,
        schemes=("Interactive", "EBS"),
        apps_per_device=1,
        faults=((None, 2.0), ("dvfs_flaky", 1.0)),
        slice_by=("regime", "thermal"),
    )


def replay_payload(jobs: int = 1) -> dict:
    """Evaluate the golden fleet and return its artefact payload.

    Serialised through JSON so the comparison sees exactly what a written
    artefact would contain; ``jobs`` is not recorded — the payload is a
    pure function of the fleet."""
    result = FleetRunner(jobs=jobs).run(golden_fleet())
    return json.loads(json.dumps(fleet_to_payload(result)))


class TestFleetGoldenArtefact:
    def test_fixture_exists_and_is_well_formed(self):
        payload = json.loads(GOLDEN_PATH.read_text())
        fleet = golden_fleet()
        assert payload["fleet"] == fleet.to_dict()
        assert payload["n_devices"] == fleet.size
        assert list(payload["population"]) == list(fleet.schemes)
        assert [row["index"] for row in payload["devices"]] == list(range(fleet.size))

    def test_replay_matches_golden_bit_for_bit(self):
        assert_matches_golden(GOLDEN_PATH, replay_payload(jobs=1), Path(__file__).name)

    def test_parallel_replay_matches_golden_too(self):
        assert replay_payload(jobs=2) == json.loads(GOLDEN_PATH.read_text())


if __name__ == "__main__":  # pragma: no cover - developer tool
    regenerate_main(__doc__, GOLDEN_PATH, replay_payload)
