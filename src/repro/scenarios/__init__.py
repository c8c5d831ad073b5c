"""Declarative scenario matrix: breadth evaluation beyond the default workload.

The ROADMAP north-star asks for "as many scenarios as you can imagine";
this package is the layer that makes a scenario a first-class, declarative
object instead of an ad-hoc script:

* :class:`~repro.scenarios.spec.ScenarioSpec` — one evaluation cell
  (platform x session regime x app mix x schemes, plus a PES tuning),
* :class:`~repro.scenarios.spec.ScenarioMatrix` — a cross-product of those
  axes expanded into specs,
* :class:`~repro.scenarios.runner.ScenarioRunner` — fans every
  (scenario x scheme x trace) job through the parallel evaluation engine
  with streaming per-scenario aggregation,
* :mod:`~repro.scenarios.library` — curated built-in scenarios and named
  matrices (``python -m repro scenarios list``).
"""

from repro.scenarios.checkpoint import ArtefactError, MatrixJournal, ShardJournal
from repro.scenarios.library import (
    BUILTIN_SCENARIOS,
    MATRICES,
    get_matrix,
    get_scenario,
)
from repro.scenarios.runner import (
    ScenarioResult,
    ScenarioRunner,
    load_results,
    results_to_payload,
    results_to_rows,
    write_results,
)
from repro.scenarios.spec import (
    APP_MIXES,
    ScenarioMatrix,
    ScenarioSpec,
    resolve_app_mix,
)
from repro.scenarios.sweep import PlatformSweep, PlatformVariant

__all__ = [
    "APP_MIXES",
    "ArtefactError",
    "BUILTIN_SCENARIOS",
    "MATRICES",
    "MatrixJournal",
    "PlatformSweep",
    "PlatformVariant",
    "ScenarioMatrix",
    "ScenarioResult",
    "ScenarioRunner",
    "ScenarioSpec",
    "ShardJournal",
    "get_matrix",
    "get_scenario",
    "load_results",
    "resolve_app_mix",
    "results_to_payload",
    "results_to_rows",
    "write_results",
]
