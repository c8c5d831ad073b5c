"""Performance-regression benches for the scheduling hot path.

Four benches anchor the perf trajectory of the repo:

* ``bench_solver`` — micro: :class:`DynamicProgrammingSolver.solve` on the
  profiled 4-app oracle workload (whole-trace windows of ~30-50 events,
  the instance shape that dominated the seed profile).
* ``bench_compare`` — macro: a ``Simulator.compare`` sweep of the reactive
  baselines and the oracle over the same traces.
* ``bench_parallel`` — scaling: serial vs multi-process replay of a large
  (200+ session) sweep through :class:`repro.runtime.parallel.ParallelEvaluator`,
  recording the speedup, the machine's CPU count, and a bit-identity check
  of the two sweeps.
* ``bench_scenarios`` — breadth: wall-clock of the ``default`` scenario
  matrix (``repro.scenarios``) fanned through ``evaluate_matrix``,
  recording scenario/replay counts so matrix regressions are attributable.
* ``bench_sweep`` — platform breadth: wall-clock of a swept matrix
  (core counts x little-cluster IPC x thermal curves expanded into derived
  systems), the shape where per-cell setup cost — power tables, operating-point
  tables, thermal fixed points — dominates if it regresses.
* ``bench_thermal`` — dynamic thermal: the ``thermal_dynamic`` matrix with
  live per-event thermal state threaded through the engines, the path
  where per-event cap derivation and capped-option enumeration would show
  up if their memoisation regresses; also records the throttle residency
  observed per curve so the bench doubles as a physics smoke check.
* ``bench_faults`` — resilience: the ``fault_sweep`` matrix with seeded
  predictor/sensor/DVFS/event-stream faults injected per session, the
  path where per-event fault draws and the sensed-temperature cap would
  show up if they regress; records injected/recovered counts per preset
  so the trajectory doubles as an injection smoke check.
* ``bench_fleet`` — population scale: a small device-population evaluation
  through :class:`repro.fleet.FleetRunner` (sampling, shared-setup sweep
  construction, matrix fan-out, per-device shard-aggregate merge),
  recording per-scheme population p95 energy as a metrics smoke check.

Each bench emits a JSON file under ``results/`` with the schema
``{name, ops_per_sec, wall_s, git_rev}`` so future PRs can regress against
the recorded trajectory.  Entry points::

    PYTHONPATH=src python -m repro bench
    PYTHONPATH=src python benchmarks/run_bench.py
    PYTHONPATH=src python -m pytest -m perf benchmarks

The pytest ``perf`` marker is deselected by default (see pyproject.toml),
keeping tier-1 fast while the benches stay runnable on demand.
"""

from __future__ import annotations

import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.optimizer.ilp import DynamicProgrammingSolver
from repro.core.optimizer.schedule import EventSpec
from repro.runtime.simulator import SimulationSetup, Simulator
from repro.schedulers.base import enumerate_options
from repro.traces.generator import TraceGenerator
from repro.utils import default_results_dir, write_json_atomic
from repro.webapp.apps import AppCatalog, SEEN_APPS

#: Applications of the profiled oracle workload the solver bench replays.
BENCH_APPS: tuple[str, ...] = ("cnn", "google", "ebay", "sina")

#: Trace seed matching the evaluation fixtures (held-out traces).
BENCH_SEED: int = 500_000

#: Deadline reserve mirroring ``OracleEngine.safety_margin_ms``.
SAFETY_MARGIN_MS: float = 8.0


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


def _oracle_windows(setup: SimulationSetup) -> list[list[EventSpec]]:
    """Whole-trace oracle DP instances for the profiled 4-app workload."""
    generator = TraceGenerator(catalog=AppCatalog())
    traces = generator.generate_many(list(BENCH_APPS), 1, base_seed=BENCH_SEED)
    windows: list[list[EventSpec]] = []
    for trace in traces:
        specs = [
            EventSpec(
                label=f"event-{event.index}",
                release_ms=0.0,
                deadline_ms=max(event.deadline_ms - SAFETY_MARGIN_MS, 0.0),
                options=tuple(
                    enumerate_options(
                        setup.system, setup.power_table, event.workload, pareto_only=True
                    )
                ),
                speculative=True,
            )
            for event in trace
        ]
        windows.append(specs)
    return windows


def bench_solver(min_duration_s: float = 3.0) -> BenchResult:
    """Micro-bench ``DynamicProgrammingSolver.solve`` (ops = window solves)."""
    setup = SimulationSetup()
    windows = _oracle_windows(setup)
    solver = DynamicProgrammingSolver(bucket_ms=1.0)
    for specs in windows:  # warm-up (numpy)
        solver.solve(specs, 0.0)

    solves = 0
    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start) < min_duration_s:
        for specs in windows:
            solver.solve(specs, 0.0)
        solves += len(windows)
    return BenchResult(
        name="solver",
        ops_per_sec=solves / elapsed,
        wall_s=elapsed,
        git_rev=git_rev(),
    )


def bench_compare(repeats: int = 3) -> BenchResult:
    """Macro-bench a scheme sweep (ops = scheme x trace session replays)."""
    simulator = Simulator()
    generator = TraceGenerator(catalog=simulator.catalog)
    traces = generator.generate_many(list(BENCH_APPS), 1, base_seed=BENCH_SEED)
    schemes = ["Interactive", "Ondemand", "EBS", "Oracle"]
    simulator.compare(traces, schemes)  # warm-up

    start = time.perf_counter()
    for _ in range(repeats):
        simulator.compare(traces, schemes)
    elapsed = time.perf_counter() - start
    sessions = repeats * len(schemes) * len(traces)
    return BenchResult(
        name="compare",
        ops_per_sec=sessions / elapsed,
        wall_s=elapsed,
        git_rev=git_rev(),
    )


def bench_parallel(
    jobs: int = 4,
    min_sessions: int = 200,
    schemes: tuple[str, ...] = ("Interactive", "Ondemand", "EBS", "Oracle"),
) -> BenchResult:
    """Serial-vs-parallel speedup of a large scheme sweep (ops = replays).

    Generates at least ``min_sessions`` sessions (SeedSequence substreams,
    deterministic across worker counts), replays them under ``schemes`` with
    ``jobs=1`` and ``jobs=jobs``, verifies the two sweeps are bit-identical,
    and records the speedup together with the machine's CPU count — a 1-core
    container cannot show parallel speedup, so readers of the trajectory
    need both numbers.
    """
    import os

    from repro.runtime.parallel import ParallelEvaluator
    from repro.utils import resolve_jobs

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
    serial_results = serial.compare(traces, schemes)
    serial_wall = time.perf_counter() - start

    start = time.perf_counter()
    parallel_results = parallel.compare(traces, schemes)
    parallel_wall = time.perf_counter() - start

    identical = serial_results == parallel_results
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


def bench_scenarios(
    jobs: int = 2,
    matrix: str = "default",
    train_traces_per_app: int = 2,
    quick: bool = False,
) -> BenchResult:
    """Wall-clock of a scenario-matrix sweep (ops = scheme x trace replays).

    Runs the named matrix from :mod:`repro.scenarios` through
    ``evaluate_matrix``.  Predictor training happens *outside* the timed
    region — the bench tracks the matrix fan-out, not the trainer.  With
    ``quick`` a tiny two-scenario reactive matrix is used instead, sized
    for smoke tests (``python -m repro bench --quick``).
    """
    import os

    from repro.scenarios import ScenarioMatrix, ScenarioRunner, get_matrix
    from repro.utils import resolve_jobs

    jobs = resolve_jobs(jobs)
    if quick:
        expanded = ScenarioMatrix(
            name="quick",
            platforms=("exynos5410",),
            regimes=("default", "flash_crowd"),
            app_mixes=("core",),
            schemes=("Interactive", "EBS"),
        ).expand()
        matrix = "quick"
    else:
        expanded = get_matrix(matrix).expand()
    runner = ScenarioRunner(jobs=jobs, train_traces_per_app=train_traces_per_app)
    learner = (
        runner.train_learner()
        if any("PES" in spec.schemes for spec in expanded)
        else None
    )

    start = time.perf_counter()
    results = runner.run(expanded, learner=learner)
    elapsed = time.perf_counter() - start
    replays = sum(spec.n_sessions * len(spec.schemes) for spec in expanded)
    return BenchResult(
        name="scenarios",
        ops_per_sec=replays / elapsed,
        wall_s=elapsed,
        git_rev=git_rev(),
        extra={
            "matrix": matrix,
            "jobs": jobs,
            "cpu_count": os.cpu_count(),
            "n_scenarios": len(results),
            "n_replays": replays,
            "schemes": sorted({scheme for spec in expanded for scheme in spec.schemes}),
        },
    )


def bench_sweep(jobs: int = 2, quick: bool = False) -> BenchResult:
    """Wall-clock of a platform-parameter sweep (ops = scheme x trace replays).

    Expands a core-count x perf_scale x thermal-curve grid into derived
    systems and fans the whole swept matrix through ``evaluate_matrix``.
    Scheme set is reactive-only so the bench isolates the sweep machinery
    (per-variant simulators, power tables, thermal fixed points) from
    predictor training.  ``quick`` shrinks the grid to two variants.
    """
    import os

    from repro.scenarios import PlatformSweep, ScenarioMatrix, ScenarioRunner
    from repro.utils import resolve_jobs

    jobs = resolve_jobs(jobs)
    sweep = PlatformSweep(
        platforms=("exynos5410",),
        big_core_counts=(None,) if quick else (None, 2),
        perf_scales=(None,) if quick else (None, 0.3),
        thermal_models=(None, "cramped_chassis") if quick else (None, "passive_phone", "cramped_chassis"),
    )
    matrix = ScenarioMatrix(
        name="bench_sweep",
        platform_sweep=sweep,
        regimes=("default",),
        app_mixes=("core",),
        schemes=("Interactive", "EBS"),
        seed=BENCH_SEED,
    )
    expanded = matrix.expand()
    runner = ScenarioRunner(jobs=jobs)

    start = time.perf_counter()
    results = runner.run(expanded)
    elapsed = time.perf_counter() - start
    replays = sum(spec.n_sessions * len(spec.schemes) for spec in expanded)
    return BenchResult(
        name="sweep",
        ops_per_sec=replays / elapsed,
        wall_s=elapsed,
        git_rev=git_rev(),
        extra={
            "jobs": jobs,
            "cpu_count": os.cpu_count(),
            "n_variants": sweep.n_variants,
            "n_scenarios": len(results),
            "n_replays": replays,
            "thermal_models": [t for t in sweep.thermal_models if t is not None],
            "schemes": list(matrix.schemes),
        },
    )


def bench_thermal(jobs: int = 2, quick: bool = False) -> BenchResult:
    """Wall-clock of a dynamic-thermal matrix (ops = scheme x trace replays).

    Runs the built-in ``thermal_dynamic`` matrix — thermal curves applied
    *per event* inside the engines rather than pre-collapsed per scenario —
    so the bench exercises live temperature advancement, memoised
    capped-platform derivation, and cap-filtered option enumeration on
    every event of every replay.  ``quick`` shrinks the grid to one curve
    on one regime.  The extra payload records each scenario's throttle
    residency so the trajectory also tracks *whether* throttling engaged,
    not just how fast the engine ran.
    """
    import os

    from repro.scenarios import ScenarioMatrix, ScenarioRunner, get_matrix
    from repro.scenarios.sweep import PlatformSweep
    from repro.utils import resolve_jobs

    jobs = resolve_jobs(jobs)
    if quick:
        matrix = ScenarioMatrix(
            name="thermal_quick",
            platform_sweep=PlatformSweep(
                platforms=("exynos5410",),
                thermal_models=("cramped_chassis",),
            ),
            regimes=("flash_crowd",),
            app_mixes=("core",),
            schemes=("Interactive", "EBS"),
            thermal_mode="dynamic",
            seed=BENCH_SEED,
        )
    else:
        matrix = get_matrix("thermal_dynamic")
    expanded = matrix.expand()
    runner = ScenarioRunner(jobs=jobs)

    start = time.perf_counter()
    results = runner.run(expanded)
    elapsed = time.perf_counter() - start
    replays = sum(spec.n_sessions * len(spec.schemes) for spec in expanded)
    residency = {
        result.spec.name: {
            scheme: round(aggregates.thermal.throttle_residency, 4)
            for scheme, aggregates in result.aggregates.items()
            if aggregates.thermal is not None
        }
        for result in results
    }
    return BenchResult(
        name="thermal",
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
            "throttle_residency": residency,
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
    import os

    from repro.faults import get_fault_preset
    from repro.scenarios import ScenarioMatrix, ScenarioRunner, get_matrix
    from repro.utils import resolve_jobs

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


def bench_fault_search(quick: bool = False) -> BenchResult:
    """Wall-clock of a bounded adversarial fault search (ops = candidate evals).

    Runs :func:`repro.faults.search.run_search` on the ``recovery_collapse``
    target — the cheapest objective (no learner training) — for a fixed
    handful of candidates, exercising per-candidate trace replay, the
    Gilbert–Elliott burst chains, the battery seam, and the hill-climb
    budget-rescaling loop.  The extra payload records the best score and
    spec so the trajectory tracks whether the search still *finds*
    anything, not just how fast it evaluates.
    """
    from repro.faults.search import run_search

    evals = 2 if quick else 8
    start = time.perf_counter()
    report = run_search("recovery_collapse", budget_evals=evals, seed=BENCH_SEED)
    elapsed = time.perf_counter() - start
    return BenchResult(
        name="fault_search",
        ops_per_sec=evals / elapsed,
        wall_s=elapsed,
        git_rev=git_rev(),
        extra={
            "target": report["target"],
            "scenario": report["scenario"],
            "budget": report["budget"],
            "budget_evals": evals,
            "baseline_score": report["baseline"]["score"],
            "best_score": report["best"]["score"],
            "best_cost": report["best"]["cost"],
            "best_spec": report["best"]["spec"],
        },
    )


def bench_fleet(jobs: int = 2, quick: bool = False) -> BenchResult:
    """Wall-clock of a small fleet-population evaluation (ops = sessions).

    Runs :meth:`repro.fleet.FleetRunner.run` on the ``smoke`` preset — a
    12-device population over two reactive schemes (no learner training in
    the timed region) — exercising device sampling, shared-setup sweep
    construction, the parallel matrix fan-out, and the per-device
    shard-aggregate merge.  The extra payload records device/session
    counts and the per-scheme population p95 energy so the trajectory
    doubles as a population-metrics smoke check.
    """
    from repro.fleet import FleetRunner, fleet_to_payload, get_fleet_preset

    fleet = get_fleet_preset("smoke")
    if quick:
        import dataclasses

        fleet = dataclasses.replace(fleet, name="smoke_quick", size=4)
    start = time.perf_counter()
    result = FleetRunner(jobs=jobs).run(fleet)
    elapsed = time.perf_counter() - start
    payload = fleet_to_payload(result)
    return BenchResult(
        name="fleet",
        ops_per_sec=payload["n_sessions"] / elapsed,
        wall_s=elapsed,
        git_rev=git_rev(),
        extra={
            "fleet": fleet.name,
            "n_devices": payload["n_devices"],
            "n_sessions": payload["n_sessions"],
            "n_slices": len(payload["slices"]),
            "jobs": jobs,
            "p95_energy_mj": {
                scheme: block["percentiles"]["energy_mj"]["p95"]
                for scheme, block in payload["population"].items()
            },
        },
    )


def bench_lint(quick: bool = False) -> BenchResult:
    """Throughput of the invariant linter over the whole ``repro`` package.

    The lint step gates CI, so its wall time is a perf surface like any
    other: a rule that goes accidentally quadratic in AST nodes shows up
    here as an ops/s collapse.  One "op" is one linted file; ``quick``
    runs a single pass, the full bench repeats to amortise import costs.
    """
    import repro
    from repro.lint import LintEngine

    engine = LintEngine(Path(repro.__file__).resolve().parent)
    repeats = 1 if quick else 5
    start = time.perf_counter()
    for _ in range(repeats):
        report = engine.run()
    elapsed = time.perf_counter() - start
    files_linted = report.n_files * repeats
    return BenchResult(
        name="lint",
        ops_per_sec=files_linted / elapsed,
        wall_s=elapsed,
        git_rev=git_rev(),
        extra={
            "n_files": report.n_files,
            "repeats": repeats,
            "n_rules": len(engine.rules),
            "n_findings": len(report.findings),
            "suppressed": report.suppressed,
        },
    )


#: Bench name -> factory taking the shared (jobs, quick) knobs.
BENCHES = {
    "solver": lambda jobs, quick: bench_solver(min_duration_s=0.2 if quick else 3.0),
    "compare": lambda jobs, quick: bench_compare(repeats=1 if quick else 3),
    "parallel": lambda jobs, quick: bench_parallel(
        jobs=jobs,
        min_sessions=4 if quick else 200,
        schemes=("Interactive", "Ondemand", "EBS") if quick else ("Interactive", "Ondemand", "EBS", "Oracle"),
    ),
    "scenarios": lambda jobs, quick: bench_scenarios(jobs=jobs, quick=quick),
    "sweep": lambda jobs, quick: bench_sweep(jobs=jobs, quick=quick),
    "thermal": lambda jobs, quick: bench_thermal(jobs=jobs, quick=quick),
    "faults": lambda jobs, quick: bench_faults(jobs=jobs, quick=quick),
    "fault_search": lambda jobs, quick: bench_fault_search(quick=quick),
    "fleet": lambda jobs, quick: bench_fleet(jobs=jobs, quick=quick),
    "lint": lambda jobs, quick: bench_lint(quick=quick),
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
