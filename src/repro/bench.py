"""Perf benches ``perfbench`` does not measure yet.

``perfbench`` (``BENCHMARK.json``) is the repo's perf harness, with repeats,
medians and a host fingerprint.  Two single-shot benches remain here until
``perfbench`` covers what they measure:

* ``bench_parallel`` — scaling: serial vs multi-process replay of a large
  (200+ session) sweep through :class:`repro.runtime.parallel.ParallelEvaluator`,
  recording the speedup, the machine's CPU count, and a bit-identity check
  of the two sweeps.
* ``bench_faults`` — resilience: the ``fault_sweep`` matrix with seeded
  predictor/sensor/DVFS/event-stream faults injected per session; records
  injected/recovered counts per fault cell so the bench doubles as an
  injection smoke check.

Each bench emits a JSON file under ``results/`` with the schema
``{name, ops_per_sec, wall_s, git_rev}``.  Entry points::

    PYTHONPATH=src python -m repro bench
    PYTHONPATH=src python -m pytest -m perf benchmarks

The pytest ``perf`` marker is deselected by default (see pyproject.toml),
keeping tier-1 fast while the benches stay runnable on demand.
"""

from __future__ import annotations

import os
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

from repro.faults import get_fault_preset
from repro.runtime.parallel import ParallelEvaluator
from repro.runtime.simulator import SimulationSetup
from repro.scenarios import ScenarioMatrix, ScenarioRunner, get_matrix
from repro.traces.generator import TraceGenerator
from repro.utils import default_results_dir, resolve_jobs, write_json_atomic
from repro.webapp.apps import AppCatalog, SEEN_APPS

#: Trace seed matching the evaluation fixtures (held-out traces).
BENCH_SEED: int = 500_000


@dataclass(frozen=True)
class BenchResult:
    """One bench measurement, serialisable to the ``BENCH_*.json`` schema."""

    name: str
    ops_per_sec: float
    wall_s: float
    git_rev: str
    #: Bench-specific measurements merged into the JSON (e.g. the parallel
    #: bench records jobs, cpu_count, speedup, and the equivalence check).
    extra: dict | None = None

    def to_json(self) -> dict:
        payload = {
            "name": self.name,
            "ops_per_sec": round(self.ops_per_sec, 4),
            "wall_s": round(self.wall_s, 4),
            "git_rev": self.git_rev,
        }
        if self.extra:
            payload.update(self.extra)
        return payload


def git_rev() -> str:
    """Short revision of the working tree, or ``"unknown"`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def write_bench_json(result: BenchResult, results_dir: Path | None = None) -> Path:
    directory = results_dir or default_results_dir()
    path = directory / f"BENCH_{result.name}.json"
    return write_json_atomic(result.to_json(), path)


def bench_parallel(
    jobs: int = 4,
    min_sessions: int = 200,
    schemes: tuple[str, ...] = ("Interactive", "Ondemand", "EBS", "Oracle"),
) -> BenchResult:
    """Serial-vs-parallel speedup of a large scheme sweep (ops = replays).

    Generates at least ``min_sessions`` sessions (SeedSequence substreams,
    deterministic across worker counts), replays them under ``schemes`` with
    ``jobs=1`` and ``jobs=jobs``, verifies the two sweeps' aggregates are
    bit-identical, and records the speedup together with the machine's CPU
    count — a 1-core container cannot show parallel speedup, so readers of
    the trajectory need both numbers.
    """
    jobs = resolve_jobs(jobs)
    catalog = AppCatalog()
    generator = TraceGenerator(catalog=catalog)
    apps = list(SEEN_APPS)
    per_app = -(-min_sessions // len(apps))  # ceil division
    traces = generator.generate_many(
        apps, per_app, base_seed=BENCH_SEED, independent_streams=True
    )

    setup = SimulationSetup()
    serial = ParallelEvaluator(setup=setup, catalog=catalog, jobs=1)
    parallel = ParallelEvaluator(setup=setup, catalog=catalog, jobs=jobs)
    serial.compare(list(traces)[:4], schemes)  # warm-up (operating-point tables, numpy)

    start = time.perf_counter()
    serial_aggregates = serial.compare(traces, schemes)
    serial_wall = time.perf_counter() - start

    start = time.perf_counter()
    parallel_aggregates = parallel.compare(traces, schemes)
    parallel_wall = time.perf_counter() - start

    identical = serial_aggregates == parallel_aggregates
    replays = len(schemes) * len(traces)
    return BenchResult(
        name="parallel",
        ops_per_sec=replays / parallel_wall,
        wall_s=parallel_wall,
        git_rev=git_rev(),
        extra={
            "jobs": jobs,
            "cpu_count": os.cpu_count(),
            "n_sessions": len(traces),
            "n_replays": replays,
            "schemes": list(schemes),
            "serial_wall_s": round(serial_wall, 4),
            "parallel_wall_s": round(parallel_wall, 4),
            "speedup": round(serial_wall / parallel_wall, 4),
            "identical": identical,
        },
    )


def bench_faults(jobs: int = 2, quick: bool = False) -> BenchResult:
    """Wall-clock of a fault-injected matrix (ops = scheme x trace replays).

    Runs the built-in ``fault_sweep`` matrix — every fault preset plus a
    fault-free control column over the reactive baselines and PES — so the
    bench exercises the per-event fault draws, the transformed event
    streams, and the sensed-temperature cap path on every replay.
    ``quick`` shrinks the grid to one preset against the control.  The
    extra payload records injected/recovered counts per fault cell so the
    trajectory also tracks *whether* injection engaged, not just how fast
    the engine ran.
    """
    jobs = resolve_jobs(jobs)
    if quick:
        matrix = ScenarioMatrix(
            name="faults_quick",
            platforms=("exynos5410",),
            regimes=("default",),
            app_mixes=("core",),
            schemes=("Interactive", "EBS"),
            fault_specs=(None, get_fault_preset("chaos")),
            seed=BENCH_SEED,
        )
    else:
        matrix = get_matrix("fault_sweep")
    expanded = matrix.expand()
    runner = ScenarioRunner(jobs=jobs)

    learner = (
        runner.train_learner()
        if any("PES" in spec.schemes for spec in expanded)
        else None
    )
    start = time.perf_counter()
    results = runner.run(expanded, learner=learner)
    elapsed = time.perf_counter() - start
    replays = sum(spec.n_sessions * len(spec.schemes) for spec in expanded)
    injection = {
        result.spec.name: {
            scheme: {
                "injected": aggregates.faults.injected,
                "recovered": aggregates.faults.recovered,
            }
            for scheme, aggregates in result.aggregates.items()
            if aggregates.faults is not None
        }
        for result in results
    }
    return BenchResult(
        name="faults",
        ops_per_sec=replays / elapsed,
        wall_s=elapsed,
        git_rev=git_rev(),
        extra={
            "matrix": matrix.name,
            "jobs": jobs,
            "cpu_count": os.cpu_count(),
            "n_scenarios": len(results),
            "n_replays": replays,
            "schemes": list(matrix.schemes),
            "injection": injection,
        },
    )


#: Bench name -> factory taking the shared (jobs, quick) knobs.
BENCHES = {
    "parallel": lambda jobs, quick: bench_parallel(
        jobs=jobs,
        min_sessions=4 if quick else 200,
        schemes=("Interactive", "Ondemand", "EBS") if quick else ("Interactive", "Ondemand", "EBS", "Oracle"),
    ),
    "faults": lambda jobs, quick: bench_faults(jobs=jobs, quick=quick),
}


def run_all(
    results_dir: Path | None = None,
    jobs: int = 4,
    only: list[str] | None = None,
    quick: bool = False,
) -> list[Path]:
    """Run the benches (all, or the ``only`` subset) and persist ``BENCH_*.json``.

    ``quick`` shrinks every bench to smoke-test size: the artefacts keep
    their schema but the numbers are *not* comparable with full runs.
    """
    names = list(BENCHES) if only is None else list(only)
    unknown = [name for name in names if name not in BENCHES]
    if unknown:
        raise ValueError(f"unknown bench {unknown[0]!r}; available: {', '.join(BENCHES)}")
    paths = []
    for name in names:
        result = BENCHES[name](jobs, quick)
        path = write_bench_json(result, results_dir)
        print(f"{result.name}: {result.ops_per_sec:.3f} ops/s over {result.wall_s:.2f}s -> {path}")
        paths.append(path)
    return paths
