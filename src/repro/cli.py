"""Command-line interface for the PES reproduction.

Nine subcommands cover the whole workflow:

* ``generate``  — synthesise interaction traces and save them to JSON,
* ``train``     — train the event predictor and report Fig. 8 accuracy,
* ``evaluate``  — replay traces under the scheduling schemes (Figs. 11/12),
* ``scenarios`` — list/run/sweep/compare declarative scenario matrices
  (platform x session regime x app mix sweeps, ``repro.scenarios``);
  ``scenarios sweep`` cross-products platform *parameters* (core counts,
  little-cluster ``perf_scale``, thermal throttling curves) into derived
  systems and writes ``results/SCENARIOS_sweep_*.json``,
* ``platforms`` — list the available hardware platform models,
* ``faults``    — list fault presets and search targets, or run the
  adversarial fault search (``faults search``): hill-climb FaultSpec
  knobs (rates, Gilbert-Elliott burst shape, battery-rail magnitudes)
  under a fault-budget constraint toward a degradation target, shard-
  journaled so a killed search resumes byte-identically (``--resume``),
* ``fleet``     — sample and evaluate fleet-scale device *populations*
  (``repro.fleet``): each device an independent weighted draw over
  (platform variant x regime x app mix x thermal curve x ambient x fault
  preset); ``fleet run`` replays every (device x scheme x trace) session,
  folds per-shard aggregates into mergeable population aggregates, and
  writes ``results/FLEET_*.json`` with per-scheme p50/p95/p99 energy/QoS/
  throttle-residency percentiles and a per-slice win/loss table,
* ``bench``     — run the parallel-speedup and fault-matrix benches
  (writes ``BENCH_*.json``; ``perfbench`` is the main perf harness),
* ``lint``      — statically check the package against its reproducibility
  invariants (``repro.lint``): determinism in payload modules
  (``DET-*``), rate-guarded RNG draws in fault seams (``RNG-GUARD``),
  ExactSum accumulation in metrics merge paths (``SUM-EXACT``), and
  atomic artefact/journal I/O (``ART-*``); non-zero exit on any finding
  that is not inline-justified (``docs/LINTING.md``).

Thermal curves apply in one of two modes (``--thermal-mode`` on
``scenarios sweep``, ``thermal_mode`` on specs/matrices): ``static``
collapses the curve to one pre-throttled platform per scenario, while
``dynamic`` threads a live thermal state through the engines — temperature
advances per event (active intervals at the executed configuration's
power, idle gaps at idle power) and the instantaneous cap shrinks the
configuration space each scheduler plans the next event over.  Dynamic
runs add a thermal table with three columns per scenario x scheme: ``peak
C`` (hottest package temperature), ``throttle res.`` (fraction of the
session spent under an engaged cap), and ``throttle slowdown`` (relative
latency inflation of throttle-planned events).

Fault injection (``--faults`` on ``scenarios run``/``sweep``) crosses the
named :data:`~repro.faults.FAULT_PRESETS`, ``none`` for a fault-free
control column, and/or paths to FaultSpec JSON files (e.g. a worst case
exported by ``faults search``) into the scenario axes: each cell replays
with seeded predictor/sensor/DVFS/event-stream/battery faults and reports
injected/recovered counts (battery separately), recovery rate, and energy
inflation per scenario x scheme.  Long
matrix runs checkpoint each finished scenario to a ``<out>.journal``
sidecar; after a crash or Ctrl-C, ``--resume`` skips the journaled cells
and the final artefact is byte-identical to an uninterrupted run.

Examples::

    python -m repro generate --apps cnn bbc --traces 3 --out traces.json
    python -m repro train --traces-per-app 6
    python -m repro evaluate --apps cnn google --schemes Interactive EBS PES
    python -m repro scenarios list
    python -m repro scenarios run --matrix thermal_dynamic --jobs 2
    python -m repro scenarios run --matrix fault_sweep
    python -m repro scenarios run --matrix full --jobs 0 --resume
    python -m repro scenarios sweep --thermal none cramped_chassis --thermal-mode dynamic
    python -m repro scenarios sweep --faults none chaos --schemes Interactive EBS PES
    python -m repro faults search --target pes_regression --budget-evals 24
    python -m repro faults search --target recovery_collapse --resume
    python -m repro fleet sample --fleet default --limit 20
    python -m repro fleet run --fleet smoke --jobs 4
    python -m repro fleet report results/FLEET_smoke.json
    python -m repro bench --only faults --quick
    python -m repro lint --format json --out results/LINT_report.json

``evaluate``, ``scenarios run``/``sweep``, ``fleet run`` and ``bench`` take
``--jobs N`` to fan the (scheme x trace) replays out over N worker processes
(``--jobs 0`` = one per CPU); results are bit-identical for any worker
count — see :mod:`repro.runtime.parallel`.  Every ``SCENARIOS_*.json``
artefact (``run`` and ``sweep`` alike) is a pure function of its matrix —
the worker count is never recorded — so two runs at different ``--jobs``
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

import repro
from repro.analysis.reporting import (
    fleet_percentile_table,
    fleet_sample_table,
    fleet_slice_table,
    format_table,
    scenario_energy_table,
    scenario_faults_table,
    scenario_qos_table,
    scenario_thermal_table,
    sweep_energy_table,
    sweep_platform_table,
)
from repro.bench import BENCHES, run_all
from repro.core.predictor.training import PredictorTrainer, evaluate_accuracy
from repro.faults import FAULT_PRESETS, FaultSpec, get_fault_preset, list_fault_presets
from repro.faults.search import SEARCH_TARGETS, list_search_targets, run_search, search_spec
from repro.faults.spec import FAULT_CATEGORIES
from repro.fleet import (
    DevicePopulation,
    FleetRunner,
    fleet_to_payload,
    get_fleet_preset,
    list_fleet_presets,
    load_fleet_results,
    write_fleet_results,
)
from repro.hardware.platforms import get_platform, list_platforms
from repro.hardware.thermal import THERMAL_MODELS, list_thermal_models
from repro.lint import LintEngine
from repro.runtime.metrics import AggregateMetrics
from repro.runtime.parallel import ParallelEvaluator
from repro.runtime.simulator import KNOWN_SCHEMES, SimulationSetup, check_schemes
from repro.scenarios import (
    APP_MIXES,
    BUILTIN_SCENARIOS,
    MATRICES,
    ArtefactError,
    MatrixJournal,
    PlatformSweep,
    ScenarioMatrix,
    ScenarioRunner,
    ShardJournal,
    get_matrix,
    get_scenario,
    load_results,
    results_to_rows,
    write_results,
)
from repro.traces.generator import TraceGenerator
from repro.traces.io import save_traces
from repro.traces.presets import SESSION_REGIMES
from repro.utils import default_results_dir, resolve_jobs, write_json_atomic
from repro.webapp.apps import AppCatalog, SEEN_APPS, UNSEEN_APPS


def _at_least(text: str, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
    return value


def _positive_int(text: str) -> int:
    """argparse type for counts that must be >= 1 (e.g. traces per app)."""
    return _at_least(text, 1)


def _worker_count(text: str) -> int:
    """argparse type for ``--jobs``: >= 0, where 0 means one per CPU."""
    return _at_least(text, 0)


def _core_count_or_none(text: str) -> int | None:
    """argparse type for sweep axes: a core count, or 'none' (keep the platform's)."""
    if text.lower() == "none":
        return None
    return _positive_int(text)


def _perf_scale_or_none(text: str) -> float | None:
    """argparse type for sweep axes: a perf_scale in (0, 1], or 'none'."""
    if text.lower() == "none":
        return None
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"perf_scale must be in (0, 1], got {value}")
    return value


@contextlib.contextmanager
def _usage_errors(command: str) -> Iterator[None]:
    """Report a ``KeyError`` or ``ValueError`` raised while building a
    command's specs as one ``<command>: <message>`` line and exit non-zero."""
    try:
        yield
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"{command}: {exc.args[0] if exc.args else exc}") from None


def _training_flag(default: int) -> argparse.ArgumentParser:
    """Parent parser for ``--train-traces-per-app``.

    A factory, not one shared parent: ``parents=`` shares the action
    object itself, so a per-command default needs its own parent.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--train-traces-per-app", type=_positive_int, default=default)
    return parent


def _build_parser() -> argparse.ArgumentParser:
    # Flags declared the same way on several commands live on small parent
    # parsers, passed with ``parents=``; each leaf command names its handler
    # with ``set_defaults(handler=...)``.
    jobs_flag = argparse.ArgumentParser(add_help=False)
    jobs_flag.add_argument(
        "--jobs",
        type=_worker_count,
        default=1,
        help="worker processes (0 = one per CPU; default 1, serial)",
    )
    resume_flag = argparse.ArgumentParser(add_help=False)
    resume_flag.add_argument(
        "--resume",
        action="store_true",
        help="restore the work already checkpointed in the run's <out>.journal "
        "sidecar (scenario runs also keep <out>.shards.journal) instead of "
        "re-simulating it; survives crashes and Ctrl-C, and the resumed "
        "artefact is byte-identical to an uninterrupted run's",
    )
    faults_flag = argparse.ArgumentParser(add_help=False)
    faults_flag.add_argument(
        "--faults",
        nargs="+",
        default=None,
        metavar="PRESET|FILE",
        help="fault specs to cross into the matrix: preset names "
        f"({', '.join(list_fault_presets())}), 'none' for a fault-free "
        "control cell, or paths to FaultSpec JSON files (e.g. the "
        "'best.spec' of a 'faults search' artefact); each spec replays "
        "every cell with seeded predictor/sensor/DVFS/event-stream/"
        "battery faults",
    )
    training_flag = _training_flag(4)
    fleet_flags = argparse.ArgumentParser(add_help=False)
    fleet_flags.add_argument(
        "--fleet",
        default="default",
        choices=list_fleet_presets(),
        help="named fleet preset (default: default, a 200-device population)",
    )
    fleet_flags.add_argument(
        "--size",
        type=_positive_int,
        default=None,
        help="override the preset's population size (devices keep their "
        "identity: device i is the same draw at any size)",
    )
    fleet_flags.add_argument(
        "--seed", type=int, default=None, help="override the preset's fleet seed"
    )

    parser = argparse.ArgumentParser(
        prog="repro",
        description="PES (ISCA 2019) reproduction: trace generation, training, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate synthetic interaction traces")
    generate.set_defaults(handler=_cmd_generate)
    generate.add_argument("--apps", nargs="+", default=list(SEEN_APPS), help="application names")
    generate.add_argument(
        "--traces", type=_positive_int, default=3, help="traces per application (>= 1)"
    )
    generate.add_argument("--seed", type=int, default=0, help="base random seed")
    generate.add_argument("--out", required=True, help="output JSON file")

    train = sub.add_parser("train", help="train the event predictor and report accuracy")
    train.set_defaults(handler=_cmd_train)
    train.add_argument("--traces-per-app", type=_positive_int, default=6)
    train.add_argument("--eval-traces", type=_positive_int, default=2)
    train.add_argument("--seed", type=int, default=0)

    evaluate = sub.add_parser(
        "evaluate",
        parents=[jobs_flag, _training_flag(6)],
        help="replay traces under scheduling schemes",
    )
    evaluate.set_defaults(handler=_cmd_evaluate)
    evaluate.add_argument("--apps", nargs="+", default=["cnn", "google", "ebay"])
    evaluate.add_argument(
        "--traces", type=_positive_int, default=1, help="traces per application (>= 1)"
    )
    evaluate.add_argument(
        "--schemes",
        nargs="+",
        default=["Interactive", "EBS", "PES", "Oracle"],
        choices=KNOWN_SCHEMES,
    )
    evaluate.add_argument("--platform", default="exynos5410", choices=list_platforms())
    evaluate.add_argument("--seed", type=int, default=500_000)

    scenarios = sub.add_parser(
        "scenarios", help="list/run/compare declarative scenario matrices"
    )
    action = scenarios.add_subparsers(dest="action", required=True)

    scenarios_list = action.add_parser(
        "list", help="list built-in scenarios, matrices, regimes, and app mixes"
    )
    scenarios_list.set_defaults(handler=_cmd_scenarios_list)
    scenarios_list.add_argument(
        "--matrix", default=None, help="show the expansion of one named matrix"
    )

    scenarios_run = action.add_parser(
        "run",
        parents=[jobs_flag, training_flag, faults_flag, resume_flag],
        help="run a matrix or named scenarios",
    )
    scenarios_run.set_defaults(handler=_cmd_scenarios_run)
    run_target = scenarios_run.add_mutually_exclusive_group()
    run_target.add_argument(
        "--matrix", default="default", help="named matrix to expand (default: default)"
    )
    run_target.add_argument(
        "--scenario",
        nargs="+",
        default=None,
        help="run these built-in scenarios instead of a matrix",
    )
    scenarios_run.add_argument(
        "--out", default=None, help="output JSON path (default: results/SCENARIOS_<name>.json)"
    )

    scenarios_sweep = action.add_parser(
        "sweep",
        parents=[jobs_flag, training_flag, faults_flag, resume_flag],
        help="sweep platform parameters (cores x perf_scale x thermal curves)",
    )
    scenarios_sweep.set_defaults(handler=_cmd_scenarios_sweep)
    scenarios_sweep.add_argument(
        "--platforms", nargs="+", default=["exynos5410"], choices=list_platforms()
    )
    scenarios_sweep.add_argument(
        "--big-cores",
        nargs="+",
        type=_core_count_or_none,
        default=None,
        help="big-cluster core counts to sweep ('none' keeps the platform's)",
    )
    scenarios_sweep.add_argument(
        "--little-cores",
        nargs="+",
        type=_core_count_or_none,
        default=None,
        help="little-cluster core counts to sweep ('none' keeps the platform's)",
    )
    scenarios_sweep.add_argument(
        "--perf-scales",
        nargs="+",
        type=_perf_scale_or_none,
        default=None,
        help="little-cluster relative IPC values to sweep ('none' keeps the platform's)",
    )
    scenarios_sweep.add_argument(
        "--thermal",
        nargs="+",
        default=None,
        choices=["none"] + list_thermal_models(),
        help="thermal throttling curves to sweep ('none' = unthrottled)",
    )
    scenarios_sweep.add_argument(
        "--thermal-mode",
        default="static",
        choices=["static", "dynamic"],
        help="how thermal curves apply: 'static' pre-throttles each scenario's "
        "platform once (heat-up dwell = the regime's session length); 'dynamic' "
        "threads live thermal state through the engines, capping the scheduler "
        "per event as the package heats and cools.  Dynamic runs report peak "
        "temperature, throttle residency, and throttle slowdown per scenario "
        "(default: static)",
    )
    scenarios_sweep.add_argument(
        "--regimes", nargs="+", default=["default"], help="session regimes to cross in"
    )
    scenarios_sweep.add_argument(
        "--apps", nargs="+", default=["core"], help="app mixes to cross in"
    )
    scenarios_sweep.add_argument(
        "--schemes", nargs="+", default=["Interactive", "EBS"], help="schemes to replay"
    )
    scenarios_sweep.add_argument("--traces-per-app", type=_positive_int, default=1)
    scenarios_sweep.add_argument("--seed", type=int, default=500_000)
    scenarios_sweep.add_argument(
        "--name", default="custom", help="sweep name used in the artefact path"
    )
    scenarios_sweep.add_argument(
        "--out",
        default=None,
        help="output JSON path (default: results/SCENARIOS_sweep_<name>.json)",
    )

    scenarios_compare = action.add_parser(
        "compare", help="render or diff saved SCENARIOS_*.json artefacts"
    )
    scenarios_compare.set_defaults(handler=_cmd_scenarios_compare)
    scenarios_compare.add_argument("files", nargs="+", help="one artefact to render, two to diff")

    platforms = sub.add_parser("platforms", help="list the available hardware platform models")
    platforms.set_defaults(handler=_cmd_platforms)

    faults = sub.add_parser(
        "faults", help="list fault presets / search for adversarial fault specs"
    )
    fault_action = faults.add_subparsers(dest="action", required=True)

    fault_action.add_parser(
        "list", help="list the named fault presets and search targets"
    ).set_defaults(handler=_cmd_faults_list)

    faults_search = fault_action.add_parser(
        "search",
        parents=[resume_flag],
        help="hill-climb FaultSpec knobs toward a degradation target",
        description="Adversarial fault search: random init + hill-climb over "
        "fault rates, burst-model shape (Gilbert-Elliott enter/exit/"
        "multiplier), and battery-rail magnitudes, under a fault-budget "
        "constraint (total stationary effective rate mass), maximising the "
        "chosen degradation target.  Every candidate is journaled per "
        "(scheme, trace) shard to <out>.journal; a killed search re-run with "
        "--resume skips finished shards and produces a byte-identical "
        "artefact.",
    )
    faults_search.set_defaults(handler=_cmd_faults_search)
    faults_search.add_argument(
        "--target",
        default="pes_regression",
        choices=list_search_targets(),
        help="degradation objective to maximise: pes_regression (PES energy "
        "vs EBS), recovery_collapse (unrecovered fault fraction), "
        "throttle_inflation (throttle-induced latency slowdown; needs a "
        "live-thermal scenario) (default: pes_regression)",
    )
    faults_search.add_argument(
        "--scenario",
        default=None,
        help="base scenario to attack (default: the target's own choice)",
    )
    faults_search.add_argument(
        "--schemes",
        nargs="+",
        default=None,
        choices=KNOWN_SCHEMES,
        help="schemes to replay per candidate (default: the target's own)",
    )
    faults_search.add_argument(
        "--budget",
        type=float,
        default=0.6,
        help="fault budget: max summed stationary effective rate mass over "
        "all per-reading fault rates; candidates over budget are scaled "
        "back onto it (default: 0.6)",
    )
    faults_search.add_argument(
        "--budget-evals",
        type=_positive_int,
        default=24,
        help="number of candidate FaultSpecs to evaluate (default: 24)",
    )
    faults_search.add_argument("--seed", type=int, default=0, help="search seed")
    faults_search.add_argument(
        "--out",
        default=None,
        help="output JSON path (default: results/FAULT_SEARCH_<target>.json); "
        "the shard journal checkpoints to <out>.journal",
    )

    fleet = sub.add_parser(
        "fleet", help="sample/evaluate fleet-scale device populations"
    )
    fleet_action = fleet.add_subparsers(dest="action", required=True)

    fleet_sample = fleet_action.add_parser(
        "sample",
        parents=[fleet_flags],
        help="sample a device population and print it (no simulation)",
        description="Deterministically sample the fleet's devices — one "
        "weighted draw per axis (platform variant, regime, app mix, thermal "
        "curve, ambient, fault preset) from an independent per-device seed — "
        "and print one row per device.  Pure and worker-count independent: "
        "the same (fleet, seed, index) always yields the same device.",
    )
    fleet_sample.set_defaults(handler=_cmd_fleet_sample)
    fleet_sample.add_argument(
        "--limit", type=_positive_int, default=None, help="print only the first N devices"
    )

    fleet_run = fleet_action.add_parser(
        "run",
        parents=[fleet_flags, jobs_flag, training_flag, resume_flag],
        help="evaluate every device of a fleet under every scheme",
        description="Sample the population, replay every (device x scheme x "
        "trace) session, and fold per-device aggregates into mergeable "
        "population aggregates: per-scheme energy/QoS/throttle-residency "
        "percentiles (p50/p95/p99) and a per-slice win/loss table.  Writes "
        "results/FLEET_<name>.json; byte-identical for any --jobs value.  "
        "Every finished session checkpoints to the <out>.journal shard "
        "journal, so a killed run re-run with --resume restores finished "
        "sessions (even part-way through a device) and produces a "
        "byte-identical artefact.",
    )
    fleet_run.set_defaults(handler=_cmd_fleet_run)
    fleet_run.add_argument(
        "--out",
        default=None,
        help="output JSON path (default: results/FLEET_<name>.json); the "
        "shard journal checkpoints to <out>.journal",
    )

    fleet_report = fleet_action.add_parser(
        "report", help="render a saved FLEET_*.json artefact"
    )
    fleet_report.set_defaults(handler=_cmd_fleet_report)
    fleet_report.add_argument("file", help="FLEET_*.json artefact to render")

    bench = sub.add_parser("bench", help="run the perf-regression benches")
    bench.set_defaults(handler=_cmd_bench)
    bench.add_argument(
        "--results-dir", default=None, help="directory for BENCH_*.json (default: results/)"
    )
    bench.add_argument(
        "--jobs",
        type=_worker_count,
        default=4,
        help="worker processes for the benches (default 4, 0 = one per CPU)",
    )
    bench.add_argument(
        "--only",
        nargs="+",
        default=None,
        choices=list(BENCHES),
        help="run only these benches",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="smoke-test sizes (artefact schema unchanged, numbers not comparable)",
    )

    lint = sub.add_parser(
        "lint",
        help="statically check the repro package against its invariants",
        description=(
            "Run the AST-based invariant linter (repro.lint) over the repro "
            "package: determinism (DET-*), fault-seam RNG guarding "
            "(RNG-GUARD), exact-sum accumulation (SUM-EXACT), and artefact "
            "safety (ART-*).  Exits non-zero when any finding is not "
            "inline-suppressed ('# repro: allow[RULE-ID] — <reason>').  "
            "See docs/LINTING.md."
        ),
    )
    lint.set_defaults(handler=_cmd_lint)
    lint.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format on stdout (default: text)",
    )
    lint.add_argument(
        "--root",
        default=None,
        help="source root to lint (default: the installed repro package)",
    )
    lint.add_argument(
        "--out",
        default=None,
        help="also write the JSON report to this path (atomic write)",
    )
    return parser


def _out_path(args: argparse.Namespace, filename: str) -> Path:
    """``--out``, or ``filename`` under the default results directory."""
    return Path(args.out) if args.out is not None else default_results_dir() / filename


def _cmd_generate(args: argparse.Namespace) -> int:
    catalog = AppCatalog()
    with _usage_errors("generate"):
        for app in args.apps:
            catalog.get(app)
    generator = TraceGenerator(catalog=catalog)
    traces = generator.generate_many(args.apps, args.traces, base_seed=args.seed)
    save_traces(traces, args.out)
    print(f"wrote {len(traces)} traces ({traces.total_events} events) to {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    catalog = AppCatalog()
    generator = TraceGenerator(catalog=catalog)
    training = generator.generate_many(list(SEEN_APPS), args.traces_per_app, base_seed=args.seed)
    result = PredictorTrainer(catalog=catalog).train(training)
    print(f"trained on {result.n_samples} samples from {result.n_traces} traces")

    evaluation = generator.generate_many(
        list(SEEN_APPS) + list(UNSEEN_APPS), args.eval_traces, base_seed=args.seed + 900_000
    )
    accuracy = evaluate_accuracy(result.learner, evaluation, catalog)
    for app in list(SEEN_APPS) + list(UNSEEN_APPS):
        group = "seen" if app in SEEN_APPS else "unseen"
        print(f"  {app:<15} {group:<7} {accuracy[app] * 100:5.1f}%")
    seen = float(np.mean([accuracy[a] for a in SEEN_APPS]))
    unseen = float(np.mean([accuracy[a] for a in UNSEEN_APPS]))
    print(f"seen average {seen * 100:.1f}%   unseen average {unseen * 100:.1f}%")
    return 0


def _evaluation_rows(
    schemes: Sequence[str], metrics: dict[str, AggregateMetrics], baseline: str
) -> list[str]:
    """Formatted result rows, with the vs-baseline column guarded.

    A baseline that aggregated to non-positive energy (degenerate traces)
    renders ``n/a`` instead of raising ``ZeroDivisionError``.
    """
    base_energy = metrics[baseline].total_energy_mj
    rows = []
    for scheme in schemes:
        m = metrics[scheme]
        if base_energy > 0:
            vs_baseline = f"{m.total_energy_mj / base_energy * 100:>9.1f}%"
        else:
            vs_baseline = f"{'n/a':>10}"
        rows.append(
            f"{scheme:<13} {m.total_energy_mj:>12.0f} {vs_baseline} "
            f"{m.qos_violation_rate * 100:>13.1f}%"
        )
    return rows


def _cmd_evaluate(args: argparse.Namespace) -> int:
    catalog = AppCatalog()
    with _usage_errors("evaluate"):
        check_schemes(args.schemes, "--schemes")
        for app in args.apps:
            catalog.get(app)
    generator = TraceGenerator(catalog=catalog)
    evaluator = ParallelEvaluator(
        setup=SimulationSetup(system=get_platform(args.platform)),
        catalog=catalog,
        jobs=resolve_jobs(args.jobs),
    )

    learner = None
    if "PES" in args.schemes:
        training = generator.generate_many(
            list(SEEN_APPS), args.train_traces_per_app, base_seed=0
        )
        learner = PredictorTrainer(catalog=catalog).train(training).learner

    traces = generator.generate_many(args.apps, args.traces, base_seed=args.seed)
    aggregates = evaluator.compare(traces, args.schemes, learner=learner)

    metrics = {scheme: aggregates[scheme].overall for scheme in args.schemes}
    baseline = args.schemes[0]
    print(f"platform={args.platform}  apps={','.join(args.apps)}  traces/app={args.traces}")
    print(f"{'scheme':<13} {'energy (mJ)':>12} {'vs ' + baseline:>10} {'QoS violation':>14}")
    for row in _evaluation_rows(args.schemes, metrics, baseline):
        print(row)
    return 0


def _sweep_axis(values: Sequence | None) -> tuple:
    """Normalise a sweep axis: ``None`` -> the keep-platform default axis;
    literal ``'none'`` entries (the thermal axis goes through argparse
    ``choices``, so they arrive unparsed) -> ``None`` cells."""
    if values is None:
        return (None,)
    return tuple(
        None if isinstance(value, str) and value.lower() == "none" else value
        for value in values
    )


def _load_fault_spec_file(path: str) -> FaultSpec:
    """Parse one ``--faults`` file argument, failing with the file named.

    Anything that goes wrong — unreadable file, invalid JSON, a payload
    :meth:`~repro.faults.FaultSpec.from_dict` rejects — surfaces as a
    usage error that names the offending file, not a traceback.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise SystemExit(
            f"--faults: {path!r} is neither a fault preset nor a readable file "
            f"({exc.strerror or exc})"
        ) from None
    except json.JSONDecodeError as exc:
        raise SystemExit(f"--faults: {path!r} is not valid JSON ({exc})") from None
    # from_dict is deliberately lenient (old artefacts omit newer keys), so
    # a shape check catches files that are valid JSON but not FaultSpecs at
    # all — those must not silently become a fault-free spec.
    if not isinstance(payload, dict) or not any(key in payload for key in FAULT_CATEGORIES):
        raise SystemExit(
            f"--faults: {path!r} is not a valid FaultSpec payload (expected a "
            f"JSON object with at least one of: {', '.join(FAULT_CATEGORIES)})"
        )
    try:
        return FaultSpec.from_dict(payload)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SystemExit(
            f"--faults: {path!r} is not a valid FaultSpec payload "
            f"({exc.args[0] if exc.args else exc})"
        ) from None


def _fault_axis(names: Sequence[str] | None) -> tuple[FaultSpec | None, ...] | None:
    """``--faults`` values -> a ``fault_specs`` axis.

    Each value is ``'none'`` (a fault-free control cell), a preset name,
    or — when it names neither — a path to a FaultSpec JSON file.
    """
    if names is None:
        return None
    axis = []
    for name in names:
        if name == "none":
            axis.append(None)
        elif name in FAULT_PRESETS:
            axis.append(get_fault_preset(name))
        else:
            axis.append(_load_fault_spec_file(name))
    return tuple(axis)


def _print_report(results: Sequence, sweep_specs: Sequence | None = None) -> None:
    """The scenario report: energy, QoS, then thermal and fault tables when
    any cell has them; a sweep's platform and pivot tables lead."""
    rows = results_to_rows(results)
    tables = [sweep_platform_table(sweep_specs), sweep_energy_table(rows)] if sweep_specs else []
    tables += [
        scenario_energy_table(rows),
        scenario_qos_table(rows),
        scenario_thermal_table(results),
        scenario_faults_table(results),
    ]
    print("\n\n".join(table for table in tables if table))


def _run_scenarios(
    args: argparse.Namespace, name: str, build: Callable[[], list], sweep: bool = False
) -> int:
    """The one driver behind ``scenarios run`` and ``scenarios sweep``.

    ``build()`` makes the specs; an unknown name or an invalid axis is a
    usage error, not a traceback.  Every finished scenario checkpoints to
    ``<out>.journal`` and every finished session to
    ``<out>.shards.journal``; after a crash, ``--resume`` restores both.
    The artefact is a pure function of the results — never of the worker
    count — so it is byte-identical for any ``--jobs`` and across resumes.
    """
    with _usage_errors(f"scenarios {args.action}"):
        specs = build()
    jobs = resolve_jobs(args.jobs)
    runner = ScenarioRunner(jobs=jobs, train_traces_per_app=args.train_traces_per_app)
    n_replays = sum(spec.n_sessions * len(spec.schemes) for spec in specs)
    lead = "running "
    if sweep:
        n_variants = len({spec.platform_variant() for spec in specs})
        lead = f"sweeping {n_variants} platform variant(s), "
    print(f"{lead}{len(specs)} scenario(s), {n_replays} session replay(s), {jobs} worker(s)...")
    out = _out_path(args, f"SCENARIOS_{name}.json")
    journal = MatrixJournal(Path(f"{out}.journal"))
    shards = ShardJournal(Path(f"{out}.shards.journal"))
    results = runner.run(specs, journal=journal, shards=shards, resume=args.resume)
    _print_report(results, specs if sweep else None)
    path = write_results(results, out, matrix=name)
    journal.clear()
    shards.clear()
    print(f"\nwrote {len(results)} scenario results to {path}")
    return 0


def _cmd_scenarios_run(args: argparse.Namespace) -> int:
    def build() -> list:
        fault_axis = _fault_axis(args.faults)
        if args.scenario:
            specs = [get_scenario(name) for name in args.scenario]
            return specs if fault_axis is None else ScenarioMatrix.cross_faults(specs, fault_axis)
        matrix = get_matrix(args.matrix)
        if fault_axis is not None:
            matrix = dataclasses.replace(matrix, fault_specs=fault_axis)
        return matrix.expand()

    return _run_scenarios(args, "custom" if args.scenario else args.matrix, build)


def _cmd_scenarios_sweep(args: argparse.Namespace) -> int:
    def build() -> list:
        return ScenarioMatrix(
            name=f"sweep_{args.name}",
            platform_sweep=PlatformSweep(
                platforms=tuple(args.platforms),
                big_core_counts=_sweep_axis(args.big_cores),
                little_core_counts=_sweep_axis(args.little_cores),
                perf_scales=_sweep_axis(args.perf_scales),
                thermal_models=_sweep_axis(args.thermal),
            ),
            regimes=tuple(args.regimes),
            app_mixes=tuple(args.apps),
            schemes=tuple(args.schemes),
            traces_per_app=args.traces_per_app,
            seed=args.seed,
            thermal_mode=args.thermal_mode,
            fault_specs=_fault_axis(args.faults) or (None,),
            description="ad-hoc platform-parameter sweep",
        ).expand()

    return _run_scenarios(args, f"sweep_{args.name}", build, sweep=True)


def _cmd_scenarios_list(args: argparse.Namespace) -> int:
    if args.matrix is not None:
        matrix = get_matrix(args.matrix)
        print(f"matrix {matrix.name}: {matrix.n_cells} scenarios — {matrix.description}")
        for spec in matrix.expand():
            print(
                f"  {spec.name:<40} apps={','.join(spec.resolved_apps())} "
                f"schemes={','.join(spec.schemes)}"
            )
        return 0
    print("built-in scenarios:")
    for name, spec in sorted(BUILTIN_SCENARIOS.items()):
        print(
            f"  {name:<18} {spec.platform:<13} {spec.regime:<16} "
            f"apps={spec.apps if isinstance(spec.apps, str) else ','.join(spec.apps):<10} "
            f"— {spec.description}"
        )
    print("matrices:")
    for name, matrix in sorted(MATRICES.items()):
        print(f"  {name:<18} {matrix.n_cells:>3} scenarios — {matrix.description}")
    print(f"session regimes: {', '.join(sorted(SESSION_REGIMES))}")
    print(f"app mixes: {', '.join(sorted(APP_MIXES))}")
    print(f"thermal models: {', '.join(sorted(THERMAL_MODELS))}")
    print(f"fault presets: {', '.join(list_fault_presets())}")
    return 0


def _cmd_scenarios_compare(args: argparse.Namespace) -> int:
    """Render one artefact, or diff the total energy of two."""
    if len(args.files) > 2:
        raise SystemExit("scenarios compare takes one or two artefact files")
    try:
        loaded = [load_results(path) for path in args.files]
    except ArtefactError as exc:
        raise SystemExit(f"scenarios compare: {exc}") from None
    payload_a, results_a = loaded[0]
    if len(args.files) == 1:
        print(f"{args.files[0]} (matrix={payload_a.get('matrix')})")
        _print_report(results_a)
        return 0

    _, results_b = loaded[1]
    by_name_b = {result.spec.name: result for result in results_b}
    rows: list[list[object]] = []
    unmatched: list[str] = []
    for result in results_a:
        other = by_name_b.get(result.spec.name)
        if other is None:
            unmatched.append(result.spec.name)
            continue
        for scheme, aggregates in result.aggregates.items():
            other_aggregates = other.aggregates.get(scheme)
            if other_aggregates is None:
                unmatched.append(f"{result.spec.name}:{scheme}")
                continue
            energy_a = aggregates.overall.total_energy_mj
            energy_b = other_aggregates.overall.total_energy_mj
            delta = f"{(energy_b / energy_a - 1) * 100:+.1f}%" if energy_a > 0 else "n/a"
            rows.append([result.spec.name, scheme, round(energy_a, 1), round(energy_b, 1), delta])
    unmatched.extend(name for name in by_name_b if name not in {r.spec.name for r in results_a})
    print(format_table(["scenario", "scheme", "energy A (mJ)", "energy B (mJ)", "B vs A"], rows))
    if unmatched:
        # A cell that vanished from one run is itself a regression signal;
        # never let it disappear from the diff silently.
        print(f"not in both artefacts: {', '.join(unmatched)}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    run_all(
        results_dir=Path(args.results_dir) if args.results_dir else None,
        jobs=args.jobs,
        only=args.only,
        quick=args.quick,
    )
    return 0


def _cmd_faults_list(_: argparse.Namespace) -> int:
    print("fault presets:")
    for name, preset in FAULT_PRESETS.items():
        print(f"  {name:<18} — {preset.description}")
    print("search targets:")
    for name, target in SEARCH_TARGETS.items():
        print(
            f"  {name:<18} — {target.description} "
            f"(scenario {target.scenario}, schemes {','.join(target.schemes)})"
        )
    return 0


def _cmd_faults_search(args: argparse.Namespace) -> int:
    with _usage_errors("faults search"):
        search_spec(
            args.target,
            scenario=args.scenario,
            schemes=args.schemes,
            budget=args.budget,
            budget_evals=args.budget_evals,
        )
    out = _out_path(args, f"FAULT_SEARCH_{args.target}.json")
    journal = ShardJournal(Path(f"{out}.journal"))
    report = run_search(
        args.target,
        scenario=args.scenario,
        schemes=args.schemes,
        budget=args.budget,
        budget_evals=args.budget_evals,
        seed=args.seed,
        journal=journal,
        resume=args.resume,
        progress=print,
    )
    write_json_atomic(report, out)
    journal.clear()
    best = report["best"]
    print(
        f"best candidate {best['name']}: score {best['score']:.4f} "
        f"(baseline {report['baseline']['score']:.4f}, fault budget "
        f"{best['cost']:.3f}/{report['budget']})"
    )
    print(f"wrote search log ({len(report['candidates'])} candidates) to {out}")
    return 0


def _selected_fleet(args: argparse.Namespace):
    """The ``--fleet`` preset with any ``--size``/``--seed`` override applied."""
    overrides = {"size": args.size, "seed": args.seed}
    return dataclasses.replace(
        get_fleet_preset(args.fleet),
        **{key: value for key, value in overrides.items() if value is not None},
    )


def _cmd_fleet_sample(args: argparse.Namespace) -> int:
    fleet = _selected_fleet(args)
    devices = DevicePopulation(fleet).devices()
    shown = devices[: args.limit] if args.limit is not None else devices
    print(f"fleet {fleet.name}: {fleet.size} device(s), seed {fleet.seed}")
    print(fleet_sample_table(shown))
    if len(shown) < len(devices):
        print(f"... and {len(devices) - len(shown)} more device(s)")
    return 0


def _cmd_fleet_run(args: argparse.Namespace) -> int:
    fleet = _selected_fleet(args)
    jobs = resolve_jobs(args.jobs)
    specs = DevicePopulation(fleet).scenario_specs()
    n_replays = sum(spec.n_sessions * len(spec.schemes) for spec in specs)
    print(
        f"evaluating fleet {fleet.name}: {fleet.size} device(s), "
        f"{n_replays} session replay(s), {jobs} worker(s)..."
    )
    out = _out_path(args, f"FLEET_{fleet.name}.json")
    # Every finished session checkpoints to the shard journal; after a
    # crash, --resume restores journaled sessions (mid-device included) and
    # the final artefact is byte-identical to an uninterrupted run's.
    journal = ShardJournal(Path(f"{out}.journal"))
    runner = FleetRunner(jobs=jobs, train_traces_per_app=args.train_traces_per_app)
    result = runner.run(fleet, shards=journal, resume=args.resume)

    payload = fleet_to_payload(result)
    print(f"{fleet_percentile_table(payload)}\n\n{fleet_slice_table(payload)}")
    path = write_fleet_results(result, out)
    journal.clear()
    print(f"\nwrote {payload['n_devices']} device results to {path}")
    return 0


def _fleet_report(path: str) -> str:
    """``fleet report``'s text; a payload of the wrong shape raises ArtefactError."""
    payload = load_fleet_results(path)
    try:
        return (
            f"{path} (fleet={payload['fleet']['name']}, "
            f"{payload['n_devices']} devices, {payload['n_sessions']} sessions)\n"
            f"{fleet_percentile_table(payload)}\n\n{fleet_slice_table(payload)}"
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ArtefactError(f"fleet artefact {path} is malformed: {exc!r}") from exc


def _cmd_fleet_report(args: argparse.Namespace) -> int:
    try:
        print(_fleet_report(args.file))
    except ArtefactError as exc:
        raise SystemExit(f"fleet report: {exc}") from None
    return 0


def _cmd_platforms(_: argparse.Namespace) -> int:
    for name in list_platforms():
        system = get_platform(name)
        clusters = ", ".join(
            f"{c.name} {c.core_count}x {c.min_frequency_mhz}-{c.max_frequency_mhz} MHz"
            for c in system.clusters
        )
        print(f"{name}: {clusters}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    root = Path(args.root) if args.root is not None else Path(repro.__file__).parent
    if not root.is_dir():
        # A mistyped root would otherwise lint zero files and pass the gate.
        print(f"lint: --root {args.root!r} is not a directory", file=sys.stderr)
        return 2
    report = LintEngine(root).run()

    if args.out is not None:
        write_json_atomic(report.to_payload(), args.out)
    if args.format == "json":
        print(json.dumps(report.to_payload(), indent=2))
    else:
        for finding in report.findings:
            print(finding.render())
        summary = (
            f"{len(report.findings)} finding(s) in {report.n_files} files "
            f"({report.suppressed} suppressed)"
        )
        print(("FAIL: " if report.findings else "ok: ") + summary)
    return 0 if report.ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    args = _build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
