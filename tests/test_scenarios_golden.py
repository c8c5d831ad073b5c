"""Golden-artefact differential test for the swept scenario matrix.

``tests/fixtures/SCENARIOS_golden.json`` is a committed, fixed-seed replay
of a small platform sweep (core counts x thermal curves, including the
degenerate ``constant_1100`` flat-cap curve).  This test re-runs that
matrix and compares the full JSON payload — every spec field and every
aggregate float — against the fixture, so *any* numeric drift anywhere in
the pipeline (trace generation, workload sampling, scheduling, power
accounting, thermal derivation, aggregation) fails loudly instead of
shipping silently.

When a change intentionally moves the numbers, regenerate the fixture and
commit it alongside the change::

    PYTHONPATH=src python tests/test_scenarios_golden.py --regenerate

``--regenerate`` prints how far each field moved (``tests/golden.py``'s
drift report) before it writes; a regenerating commit quotes that report.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.scenarios import (
    PlatformSweep,
    ScenarioMatrix,
    ScenarioRunner,
    results_to_payload,
)

from golden import assert_matches_golden, regenerate_main

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "SCENARIOS_golden.json"


def golden_matrix() -> ScenarioMatrix:
    """The committed matrix: small, PES-free, spanning the new axes."""
    return ScenarioMatrix(
        name="golden",
        platform_sweep=PlatformSweep(
            platforms=("exynos5410",),
            big_core_counts=(None, 2),
            thermal_models=(None, "constant_1100", "cramped_chassis"),
        ),
        regimes=("flash_crowd",),
        app_mixes=("core",),
        schemes=("Interactive", "EBS"),
        traces_per_app=1,
        seed=424_242,
        description="golden differential fixture: cores x thermal on flash_crowd",
    )


def replay_payload(jobs: int = 1) -> dict:
    """Run the golden matrix and return its artefact payload.

    Serialised through JSON so the comparison sees exactly what a written
    artefact would contain (float repr round-trip is lossless, so this does
    not mask drift).  ``jobs`` is not recorded: the payload is a pure
    function of the matrix.
    """
    results = ScenarioRunner(jobs=jobs).run(golden_matrix().expand())
    payload = results_to_payload(results, matrix="golden")
    return json.loads(json.dumps(payload))


class TestGoldenArtefact:
    def test_fixture_exists_and_is_well_formed(self):
        payload = json.loads(GOLDEN_PATH.read_text())
        assert payload["matrix"] == "golden"
        assert payload["n_scenarios"] == golden_matrix().n_cells
        names = [entry["spec"]["name"] for entry in payload["scenarios"]]
        assert names == [spec.name for spec in golden_matrix().expand()]

    def test_replay_matches_golden_bit_for_bit(self):
        assert_matches_golden(GOLDEN_PATH, replay_payload(jobs=1), Path(__file__).name)

    def test_flat_cap_cell_matches_constant_curve_cell_semantics(self):
        """Inside the golden fixture itself, the constant_1100 cells must
        carry a platform whose ladder never exceeds the flat cap."""
        from repro.scenarios import ScenarioSpec

        payload = json.loads(GOLDEN_PATH.read_text())
        constant_cells = [
            entry
            for entry in payload["scenarios"]
            if entry["spec"]["thermal"] == "constant_1100"
        ]
        assert constant_cells, "golden matrix must include the degenerate curve"
        for entry in constant_cells:
            system = ScenarioSpec.from_dict(entry["spec"]).system()
            assert all(
                cluster.max_frequency_mhz <= 1_100 for cluster in system.clusters
            ), f"{entry['spec']['name']} runs an uncapped ladder"


if __name__ == "__main__":  # pragma: no cover - developer tool
    regenerate_main(__doc__, GOLDEN_PATH, replay_payload)
