"""Trace every command this repository ships and list the functions none enters.

Usage::

    git archive HEAD | tar -x -C /tmp/head        # any throwaway copy
    python tools/unreached/run.py /tmp/head /tmp/unreached

The first argument is a copy of the repository (a ``git archive`` or
``git clone``); it is copied again to ``OUT/tree`` and only that second
copy runs, so every artefact, journal, figure file and perfbench report the
commands write lands under ``OUT``.  ``OUT`` must not exist yet.  Each
command runs with ``sitecustomize.py`` from this directory on
``PYTHONPATH``, which records the ``src/repro`` functions every process and
pool worker enters in ``OUT/calls``.  ``report.py`` then prints the
functions nobody entered, one per line, and the summary
``N of M functions unreached, L lines``; ``OUT/unreached.txt`` keeps a copy.

The command list, :data:`COMMANDS`, is every CLI subcommand and the forms
its documentation and CI use: runs with and without ``--out``, a killed
run resumed with ``--resume`` (scenarios, fleet and fault search), a
``--faults FILE`` run, the ``scenarios sweep`` axis flags, ``compare`` and
``fleet report`` on a missing file, and ``lint`` in both formats; then
every ``examples/*.py``, ``pytest benchmarks --benchmark-disable`` and one
``perfbench/run.py --seconds 5`` pass per workload.  pytest-benchmark
turns the profiler off around every timed call unless benchmarking is
disabled, so code reached only inside ``benchmark(...)`` would read as
unreached.  Code that runs only on inputs no command feeds it (a pool
worker that raises, a lint finding) also reads as unreached; check each
candidate against those paths.  The whole run takes several minutes on
two vCPUs and uses at most two worker processes.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # write nothing outside OUT, not even __pycache__

import report  # noqa: E402  (this directory, put on sys.path above)

#: Seconds one command may take before the driver gives up on it.
TIMEOUT_S = 1800


class Step(NamedTuple):
    """One command: ``argv`` with ``{out}`` standing for the artefact directory.

    ``expect`` is ``"ok"`` for a zero exit status, ``"fail"`` for a command
    that must exit non-zero (with one line) and ``"any"`` when either is
    fine.
    ``interrupt_after`` names a file (a journal) whose first bytes make the
    driver send SIGINT, so the next step can ``--resume``.  ``before`` runs
    in the driver first (it may write an input file under ``{out}``).
    """

    argv: tuple[str, ...]
    expect: str = "ok"
    interrupt_after: str | None = None
    before: Callable[[Path], None] | None = None


def repro(*args: str, **options) -> Step:
    return Step(("python", "-m", "repro") + args, **options)


def _write_search_best(out: Path) -> None:
    """Write the best FaultSpec of the fault search below as a ``--faults`` file."""
    payload = json.loads((out / "search.json").read_text(encoding="utf-8"))
    (out / "best_spec.json").write_text(json.dumps(payload["best"]["spec"]), encoding="utf-8")


def _examples(tree: Path) -> list[Step]:
    return [Step(("python", f"examples/{path.name}")) for path in sorted((tree / "examples").glob("*.py"))]


COMMANDS: tuple[Step, ...] = (
    repro("platforms"),
    repro("generate", "--apps", "cnn", "bbc", "--traces", "2", "--out", "{out}/traces.json"),
    repro("train", "--traces-per-app", "2", "--eval-traces", "1"),
    repro("evaluate", "--apps", "cnn", "google", "--schemes", "Interactive", "Ondemand", "EBS",
          "PES", "Oracle", "--traces", "1", "--train-traces-per-app", "2"),
    repro("evaluate", "--apps", "cnn", "google", "--schemes", "Interactive", "EBS", "PES",
          "--traces", "1", "--train-traces-per-app", "2", "--jobs", "2"),
    repro("evaluate", "--platform", "tegra_parker", "--schemes", "Oracle", "--traces", "1"),
    repro("scenarios", "list"),
    repro("scenarios", "list", "--matrix", "default"),
    # Without --out: the artefact goes to the copy's results/.
    repro("scenarios", "run", "--jobs", "1"),
    repro("scenarios", "run", "--scenario", "flash_crowd", "hot_chassis_live", "--jobs", "2",
          "--out", "{out}/pes.json"),
    repro("scenarios", "run", "--matrix", "fault_sweep", "--jobs", "1", "--train-traces-per-app",
          "1", "--out", "{out}/resume.json", interrupt_after="{out}/resume.json.journal"),
    repro("scenarios", "run", "--matrix", "fault_sweep", "--jobs", "1", "--train-traces-per-app",
          "1", "--out", "{out}/resume.json", "--resume"),
    repro("scenarios", "sweep", "--big-cores", "none", "2", "--little-cores", "2",
          "--perf-scales", "none", "0.5", "--thermal", "none", "cramped_chassis",
          "--thermal-mode", "dynamic", "--schemes", "Interactive", "EBS", "PES",
          "--train-traces-per-app", "1", "--jobs", "2", "--out", "{out}/sweep.json"),
    repro("scenarios", "sweep", "--faults", "none", "chaos", "--schemes", "Interactive", "EBS",
          "PES", "--train-traces-per-app", "1", "--out", "{out}/sweep_faults.json"),
    repro("scenarios", "compare", "{out}/pes.json"),
    repro("scenarios", "compare", "{out}/sweep.json", "{out}/sweep_faults.json"),
    repro("scenarios", "compare", "{out}/nosuch.json", expect="fail"),
    repro("faults", "list"),
    repro("faults", "search", "--target", "recovery_collapse", "--budget-evals", "8",
          "--out", "{out}/search.json", interrupt_after="{out}/search.json.journal"),
    repro("faults", "search", "--target", "recovery_collapse", "--budget-evals", "8",
          "--out", "{out}/search.json", "--resume"),
    repro("faults", "search", "--budget-evals", "3", "--out", "{out}/search_pes.json"),
    repro("faults", "search", "--target", "throttle_inflation", "--budget-evals", "3",
          "--out", "{out}/search_throttle.json"),
    repro("scenarios", "run", "--scenario", "baseline_seen", "--faults", "none", "dvfs_flaky",
          "{out}/best_spec.json", "--train-traces-per-app", "1", "--out", "{out}/faults_file.json",
          before=_write_search_best),
    repro("fleet", "sample", "--fleet", "smoke", "--limit", "5"),
    repro("fleet", "run", "--fleet", "smoke", "--jobs", "2", "--out", "{out}/fleet.json",
          interrupt_after="{out}/fleet.json.journal"),
    repro("fleet", "run", "--fleet", "smoke", "--jobs", "2", "--out", "{out}/fleet.json", "--resume"),
    repro("fleet", "report", "{out}/fleet.json"),
    repro("fleet", "report", "{out}/nosuch.json", expect="fail"),
    repro("bench", "--quick", "--jobs", "2", "--results-dir", "{out}/bench"),
    repro("lint"),
    repro("lint", "--format", "json", "--out", "{out}/lint.json"),
    repro("lint", "--root", "{out}/nosuch", expect="fail"),
)

AFTER_EXAMPLES: tuple[Step, ...] = (
    # The three sec63 tests fail after their measured call: with
    # benchmarking disabled, benchmark.stats is None.
    Step(("python", "-m", "pytest", "benchmarks", "-q", "-p", "no:cacheprovider",
          "--benchmark-disable"), expect="any"),
) + tuple(
    Step(("python", "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "5"))
    for workload in ("pes_matrix", "fleet_reactive", "train")
)


def _run(step: Step, tree: Path, artefacts: Path, env: dict[str, str], log) -> bool:
    """Run one step in ``tree``; True when its exit status is the expected one."""
    argv = [sys.executable if arg == "python" else arg.replace("{out}", str(artefacts)) for arg in step.argv]
    if step.before is not None:
        step.before(artefacts)
    log.write(f"$ {' '.join(argv)}\n")
    log.flush()
    started = time.monotonic()
    process = subprocess.Popen(argv, cwd=tree, env=env, stdout=log, stderr=subprocess.STDOUT)
    if step.interrupt_after is not None:
        marker = Path(step.interrupt_after.replace("{out}", str(artefacts)))
        while process.poll() is None and not (marker.exists() and marker.stat().st_size > 0):
            time.sleep(0.05)
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
        else:
            print(f"  note: finished before {marker.name} was written; nothing to resume", flush=True)
    try:
        status = process.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        status = process.wait()
    ok = step.interrupt_after is not None or step.expect == "any" or (status == 0) == (step.expect == "ok")
    print(f"  exit {status} in {time.monotonic() - started:.1f} s: {' '.join(step.argv[1:])}", flush=True)
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("copy", type=Path, help="a throwaway copy of the repository")
    parser.add_argument("out", type=Path, help="output directory (must not exist)")
    args = parser.parse_args(argv)
    copy, out = args.copy.resolve(), args.out.resolve()
    if not (copy / "src" / "repro").is_dir():
        parser.error(f"{copy} holds no src/repro")
    if out.exists():
        parser.error(f"{out} exists; give a new directory")
    if out.is_relative_to(copy) or copy.is_relative_to(out):
        parser.error("the copy and the output directory must not contain each other")

    tree, calls, artefacts = out / "tree", out / "calls", out / "artefacts"
    shutil.copytree(copy, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", "*.pyc"))
    calls.mkdir()
    artefacts.mkdir()
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join([str(tree / "src"), str(HERE)]),
        UNREACHED_SRC=str(tree / "src" / "repro"),
        UNREACHED_OUT=str(calls),
        PYTHONDONTWRITEBYTECODE="1",
    )
    failed = []
    with open(out / "commands.log", "w", encoding="utf-8") as log:
        for step in COMMANDS + tuple(_examples(tree)) + AFTER_EXAMPLES:
            if not _run(step, tree, artefacts, env, log):
                failed.append(" ".join(step.argv))
    listing = io.StringIO()
    report.report(tree / "src" / "repro", calls, out=listing)
    (out / "unreached.txt").write_text(listing.getvalue(), encoding="utf-8")
    print(listing.getvalue(), end="")
    for command in failed:
        print(f"unexpected exit status (see {out / 'commands.log'}): {command}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
