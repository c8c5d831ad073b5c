"""Parallel batched evaluation engine: multi-process scheme sweeps.

A full paper evaluation replays every (scheme x trace) pair, and each replay
is independent — exactly the embarrassingly parallel shape a process pool
exploits.  :class:`ParallelEvaluator` runs every evaluation as a matrix of
:class:`MatrixSweep` cells (:meth:`~ParallelEvaluator.compare` is a
one-sweep matrix) and fans the jobs out over one ``multiprocessing`` pool:

* **Recipes, not traces** — scenario sweeps carry
  :class:`~repro.traces.generator.TraceRecipes`.  A pool unit is one
  (sweep, trace index) with all its schemes left to replay, so each trace
  is generated once, in the worker that replays it, from a few ints.
* **Simulator reuse** — one lazy :class:`~repro.runtime.simulator.Simulator`
  per hardware setup, so the hardware model, the per-scheme baseline
  schedulers, and the per-app PES schedulers are built once per setup, not
  once per job.  The same cache serves the in-process run, every pool
  worker (it is the pool initarg, so the trained learner and the recipes
  ship to each worker once, not per job), and the parent's serial retries.
* **Chunked work stealing** — units are pulled from a shared queue in small
  chunks, so a worker that drew short sessions steals the next chunk
  instead of idling behind a worker stuck on a long one.
* **Deterministic ordering** — every job carries its global index (sweep,
  then scheme, then trace); sessions are re-sequenced as they arrive, so
  every floating-point aggregate fold and every hook call is independent of
  worker count and completion order.
* **Fold where the session finishes** — whoever replays a job (a pool
  worker, or the parent at one worker) folds the session once and, when the
  run journals, encodes its shard payload once
  (:func:`~repro.runtime.metrics.finish_session`).  Workers return a
  :class:`~repro.runtime.metrics.FinishedSession` per job: the fold, the
  app name and the encoded payload; a ``SessionResult`` never crosses the
  pipe.  The parent only merges each fold into its cell's overall and
  per-app aggregates, in job order, and hands the session to the hooks,
  which append the payload as it is.
* **Cells are the result** — :meth:`~ParallelEvaluator.evaluate_matrix`
  returns its cells unfinalised (a
  :class:`~repro.runtime.metrics.StreamingSweepAggregator` per sweep and
  scheme); callers merge them, or finalise each once.
* **In-process runs** — with one worker (``jobs=1``, or a single unit left
  to run) the jobs replay in the parent in job order, with no pool.  Every
  replay is deterministic and every fold merges through exact sums, so
  ``jobs>1`` produces bit-identical aggregates, hook calls and journal
  bytes; only wall-clock changes.
* **Graceful degradation** — a job that raises in a worker comes back as a
  failure payload for that job alone instead of poisoning the pool; after
  the pool is torn down cleanly, failed (and, with ``job_timeout_s``,
  stalled) jobs are re-run serially in the parent, so a transient worker
  crash degrades to serial throughput rather than a lost sweep, while a
  deterministic bug surfaces as the original exception from the serial
  re-run.  A ``RuntimeWarning`` names every re-run job and its error.

Running evaluations in parallel
-------------------------------

Route any sweep through the ``jobs`` knob::

    aggregates = ParallelEvaluator(setup=setup, catalog=catalog, jobs=4).compare(
        traces, schemes, learner=learner
    )
    cnn_energy_mj = aggregates["PES"].per_app["cnn"].total_energy_mj

or from the command line::

    python -m repro evaluate --apps cnn google --schemes Interactive EBS --jobs 4
    python -m repro bench --only parallel --jobs 4   # writes results/BENCH_parallel.json

``python -m repro bench`` records the serial-vs-parallel speedup (plus the
machine's CPU count) in ``results/BENCH_parallel.json``; expect ~linear
scaling up to the physical core count and ~1x on single-core containers.
"""

from __future__ import annotations

import multiprocessing
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.pes import PesConfig
from repro.core.predictor.sequence_learner import EventSequenceLearner
from repro.runtime.metrics import (
    FinishedSession,
    SchemeAggregates,
    SessionResult,
    StreamingMatrixAggregator,
    StreamingSweepAggregator,
    finish_session,
)
from repro.runtime.simulator import SimulationSetup, Simulator, check_schemes
from repro.traces.trace import Trace, TraceSet
from repro.utils import mp_context, pool_chunk_size, resolve_jobs
from repro.webapp.apps import AppCatalog

__all__ = [
    "MatrixSweep",
    "ParallelEvaluator",
]


@dataclass(frozen=True)
class _JobFailure:
    """Picklable record of an exception raised inside a pool worker."""

    error_type: str
    message: str

    @classmethod
    def from_exception(cls, exc: BaseException) -> "_JobFailure":
        return cls(error_type=type(exc).__name__, message=str(exc))


@dataclass(frozen=True)
class MatrixSweep:
    """One scenario's share of a matrix evaluation.

    Every sweep carries its own :class:`SimulationSetup` — matrix cells may
    differ in platform, frequency cap, or PES tuning — while the pool and
    the trained learner are shared across the whole matrix.

    ``traces`` is any sequence.  Scenario sweeps carry lazy
    :class:`~repro.traces.generator.TraceRecipes`, which the evaluator
    generates once per trace, in the process that replays it; any other
    caller walking them twice should materialise them with ``tuple()``.

    ``setup_key`` tags sweeps that share one hardware configuration: all
    sweeps carrying the same tag must carry the *same* ``setup`` (and
    ``pes_config``) object, and workers then build one simulator per tag
    instead of one per sweep.  A fleet of thousands of devices drawn from a
    handful of platform variants pays for a handful of power tables and
    scheduler caches, not thousands.  ``None`` (the default) keeps the
    per-sweep-key behaviour.
    """

    key: str
    setup: SimulationSetup
    traces: Sequence[Trace]
    schemes: tuple[str, ...]
    pes_config: PesConfig | None = None
    setup_key: str | None = None

    def __post_init__(self) -> None:
        if not self.key:
            raise ValueError("a matrix sweep needs a non-empty key")
        check_schemes(self.schemes, f"matrix sweep {self.key!r}")
        if not self.traces:
            # A zero-trace sweep would silently vanish from the aggregates
            # and surface as a KeyError in whoever indexes by sweep key.
            raise ValueError(f"matrix sweep {self.key!r} has no traces")


# -- worker side --------------------------------------------------------------------


@dataclass
class _Simulators:
    """Lazy simulators and traces for one matrix run.

    Sweeps tagged with the same ``setup_key`` share a simulator; the rest get
    one per sweep key.  Simulators are built on first use, so a worker that
    only ever steals jobs from two scenarios never pays for the other
    setups' power tables and scheduler caches, and a clean pool run never
    builds the parent's retry simulators.  Traces are generated on first
    use too, and only the current sweep's are kept: jobs arrive grouped by
    sweep, so each trace is generated once and a process holds one sweep's
    traces at a time.  The in-process run, the pool workers and the
    parent's retries all replay through :meth:`run`, and hand each session
    on through :meth:`finish`: folded, and encoded when ``encode``.
    """

    catalog: AppCatalog
    learner: EventSequenceLearner | None
    #: Sweep key -> (setup, PES config, simulator cache key).
    setups: dict[str, tuple[SimulationSetup, PesConfig | None, str]]
    #: Sweep key -> the sweep's traces (usually recipes).
    traces: dict[str, Sequence[Trace]]
    #: Encode each session's shard payload (the run journals).
    encode: bool = False
    simulators: dict[str, Simulator] = field(default_factory=dict)
    #: The sweep whose traces ``generated`` holds, by trace index.
    current: str | None = None
    generated: dict[int, Trace] = field(default_factory=dict)

    @classmethod
    def for_sweeps(
        cls,
        sweeps: Sequence[MatrixSweep],
        catalog: AppCatalog,
        learner: EventSequenceLearner | None,
        *,
        encode: bool = False,
    ) -> "_Simulators":
        setups = {
            sweep.key: (sweep.setup, sweep.pes_config, sweep.setup_key or sweep.key)
            for sweep in sweeps
        }
        traces = {sweep.key: sweep.traces for sweep in sweeps}
        return cls(
            catalog=catalog,
            learner=learner,
            setups=setups,
            traces=traces,
            encode=encode,
        )

    def run(self, key: str, scheme: str, trace_index: int) -> SessionResult:
        """Replay one (sweep, scheme, trace index) job."""
        if key != self.current:
            self.current, self.generated = key, {}
        if trace_index not in self.generated:
            self.generated[trace_index] = self.traces[key][trace_index]
        setup, pes_config, cache_key = self.setups[key]
        simulator = self.simulators.get(cache_key)
        if simulator is None:
            simulator = Simulator(setup=setup, catalog=self.catalog)
            self.simulators[cache_key] = simulator
        return simulator.run_scheme(
            [self.generated[trace_index]], scheme, learner=self.learner, pes_config=pes_config
        )[0]

    def finish(self, key: str, scheme: str, trace_index: int) -> FinishedSession:
        """Replay one job and fold it (and encode it) where it ran."""
        return finish_session(self.run(key, scheme, trace_index), encode=self.encode)


# Pool workers keep one _Simulators for their whole life: the initializer runs
# once per worker process, then _run_matrix_units serves every chunk the
# worker steals.
_MATRIX_WORKER: _Simulators | None = None


def _init_matrix_worker(simulators: _Simulators) -> None:
    global _MATRIX_WORKER
    _MATRIX_WORKER = simulators


def _run_matrix_units(
    units: list[tuple[tuple[str, int], list[tuple[int, str]]]]
) -> list[tuple[int, FinishedSession | _JobFailure]]:
    """Replay a chunk of units as one pool task (see :func:`_chunked`).

    A unit is a (sweep key, trace index) and its (job index, scheme) pairs.
    Each job comes back as a :class:`FinishedSession`: its fold, its app and,
    when the run journals, its encoded shard payload.

    Exceptions come back as :class:`_JobFailure` payloads rather than
    propagating through the pool — a raising job must not poison the shared
    ``imap`` stream the rest of the sweep is still flowing through — and a
    scheme (or a trace generation) that raises fails its own jobs only.
    """
    assert _MATRIX_WORKER is not None, "matrix worker pool was not initialised"
    delivered: list[tuple[int, FinishedSession | _JobFailure]] = []
    for (key, trace_index), todo in units:
        for index, scheme in todo:
            try:
                delivered.append((index, _MATRIX_WORKER.finish(key, scheme, trace_index)))
            except Exception as exc:
                delivered.append((index, _JobFailure.from_exception(exc)))
    return delivered


def _chunked(units: list, size: int) -> list[list]:
    """Split the unit list into parent-side chunks of at most ``size`` units.

    Chunking happens here, not via ``imap_unordered``'s ``chunksize``: with
    ``chunksize > 1`` CPython wraps the result stream in a plain generator,
    which has no ``next(timeout)`` and so cannot carry the stall watchdog.
    Submitting pre-chunked task lists with ``chunksize=1`` keeps the real
    ``IMapUnorderedIterator`` (timeout-capable) while preserving the IPC
    amortisation chunking is for.
    """
    return [units[start : start + size] for start in range(0, len(units), size)]


# -- driver side --------------------------------------------------------------------


@dataclass
class ParallelEvaluator:
    """Fans (scheme x trace) replay jobs out over a process pool."""

    setup: SimulationSetup = field(default_factory=SimulationSetup)
    catalog: AppCatalog = field(default_factory=AppCatalog)
    jobs: int | None = None
    #: Stall watchdog: if no result arrives for this many seconds, the pool
    #: is torn down and the undelivered jobs are re-run serially in the
    #: parent.  ``None`` (the default) waits indefinitely.  This is a
    #: *progress* timeout on the whole pool, not a per-job deadline — it
    #: only fires when every worker has gone quiet (hung or dead).
    job_timeout_s: float | None = None

    def __post_init__(self) -> None:
        self._jobs = resolve_jobs(self.jobs)

    # -- public API ------------------------------------------------------------

    def compare(
        self,
        traces: TraceSet | Sequence[Trace],
        schemes: Sequence[str],
        *,
        learner: EventSequenceLearner | None = None,
        pes_config: PesConfig | None = None,
    ) -> dict[str, SchemeAggregates]:
        """Replay the same traces under several schemes: a one-sweep matrix run.

        Returns each scheme's finalised cell (overall and per app, in trace
        order of first appearance).  The sweep is validated like any matrix
        cell (known, distinct schemes; a learner for PES; at least one
        trace).
        """
        sweep = MatrixSweep(
            key="compare",
            setup=self.setup,
            traces=tuple(traces),
            schemes=tuple(schemes),
            pes_config=pes_config,
        )
        cells = self.evaluate_matrix([sweep], learner=learner)[sweep.key]
        return {scheme: cell.finalize() for scheme, cell in cells.items()}

    def evaluate_matrix(
        self,
        sweeps: Sequence[MatrixSweep],
        *,
        learner: EventSequenceLearner | None = None,
        encode: bool = False,
        on_sweep_complete: Callable[[MatrixSweep, dict[str, StreamingSweepAggregator]], None]
        | None = None,
        on_job_complete: Callable[[str, str, int, FinishedSession], None] | None = None,
        precomputed: dict[tuple[str, str, int], FinishedSession] | None = None,
    ) -> dict[str, dict[str, StreamingSweepAggregator]]:
        """Fan several scenarios' (scheme x trace) jobs through one pool.

        Returns the cells, ``{sweep key: {scheme: StreamingSweepAggregator}}``
        in matrix order, unfinalised: merge them, or call ``finalize()`` on
        a cell for its :class:`~repro.runtime.metrics.SchemeAggregates`.

        Jobs from every sweep share the pool, so a short scenario's workers
        steal from a long one instead of idling at scenario boundaries.
        Each session is folded once, where it finished (a pool worker, or
        the parent at one worker), and the parent merges the folds in global
        job order (sweep, then scheme, then trace), making every
        per-scenario aggregate bit-identical for any worker count.

        ``on_sweep_complete`` is called once per sweep, in matrix order, the
        moment that sweep's last job has been folded — while later sweeps
        may still be running — with that sweep's ``{scheme: cell}``: the
        same objects the run returns, complete.  The checkpoint journal
        hangs off this hook.

        ``on_job_complete`` is called once per job as ``(key, scheme,
        trace_index, session)`` with the job's :class:`FinishedSession`, in
        fold order — i.e. global job order regardless of worker count, so a
        shard-level checkpoint built on it
        (:class:`~repro.scenarios.checkpoint.ShardJournal`) is deterministic
        for any ``--jobs`` value.  With ``encode=True`` every fresh session
        carries its encoded shard payload, made where it finished.

        ``precomputed`` maps ``(sweep key, scheme, trace index)`` to an
        already-known :class:`FinishedSession` (e.g. restored from a shard
        journal on ``--resume``, see
        :func:`~repro.runtime.metrics.restore_session`).  Those jobs are
        never re-simulated; their folds merge in their original global job
        position, so the aggregates — and every hook invocation — stay
        bit-identical to an uninterrupted run — and a trace none of whose
        jobs is left to run is never generated.
        """
        sweep_list = list(sweeps)
        keys = [sweep.key for sweep in sweep_list]
        if len(set(keys)) != len(keys):
            raise ValueError("matrix sweep keys must be unique")
        if learner is None and any("PES" in sweep.schemes for sweep in sweep_list):
            raise ValueError("running PES requires a trained learner")
        shared_setups: dict[str, MatrixSweep] = {}
        for sweep in sweep_list:
            if sweep.setup_key is None:
                continue
            owner = shared_setups.setdefault(sweep.setup_key, sweep)
            if owner.setup is not sweep.setup or owner.pes_config is not sweep.pes_config:
                # Sharing a tag but not the objects would silently replay
                # one sweep on another's hardware model.
                raise ValueError(
                    f"matrix sweeps {owner.key!r} and {sweep.key!r} share "
                    f"setup_key {sweep.setup_key!r} but not the same setup"
                )

        # Job ``i`` is ``jobs[i]``: (sweep key, scheme, trace index).  Jobs
        # still to run are grouped by trace into units, in (sweep, trace)
        # order, so each trace is generated once for all its schemes.
        jobs: list[tuple[str, str, int]] = []
        units: dict[tuple[str, int], list[tuple[int, str]]] = {}
        sweep_end: dict[int, MatrixSweep] = {}
        done: dict[int, FinishedSession] = {}
        for sweep in sweep_list:
            for scheme in sweep.schemes:
                for trace_index in range(len(sweep.traces)):
                    job = (sweep.key, scheme, trace_index)
                    known = None if precomputed is None else precomputed.get(job)
                    if known is not None:
                        done[len(jobs)] = known
                    else:
                        units.setdefault((sweep.key, trace_index), []).append((len(jobs), scheme))
                    jobs.append(job)
            sweep_end[len(jobs) - 1] = sweep
        aggregator = StreamingMatrixAggregator()

        def fold(index: int, session: FinishedSession) -> None:
            key, scheme, trace_index = jobs[index]
            aggregator.add(key, scheme, session.fold, session.app_name)
            if on_job_complete is not None:
                on_job_complete(key, scheme, trace_index, session)
            finished = sweep_end.get(index)
            if finished is not None and on_sweep_complete is not None:
                on_sweep_complete(finished, aggregator.cells[finished.key])

        simulators = _Simulators.for_sweeps(sweep_list, self.catalog, learner, encode=encode)
        workers = min(self._jobs, len(units))
        if workers <= 1:
            # In-process: jobs in ``done`` merge their known fold without
            # touching a simulator or generating a trace.
            for index, job in enumerate(jobs):
                session = done.get(index)
                fold(index, simulators.finish(*job) if session is None else session)
        else:
            self._drain_pool(jobs, list(units.items()), simulators, workers, fold, done)

        # Jobs fold in (sweep, scheme, trace) order and every sweep has jobs,
        # so the cells are in matrix order.
        return aggregator.cells

    # -- pool lifecycle -----------------------------------------------------------

    def _drain_pool(
        self,
        jobs: list[tuple[str, str, int]],
        units: list[tuple[tuple[str, int], list[tuple[int, str]]]],
        simulators: _Simulators,
        workers: int,
        fold: Callable[[int, FinishedSession], None],
        done: dict[int, FinishedSession],
    ) -> None:
        """Run the units through one pool with ordered folding and fault recovery.

        ``done`` holds already-known sessions (resume path): they join the
        pending map up front, fold at their original position as the prefix
        fills in, and are never submitted to the pool.

        Sessions arrive in completion order (work stealing); the contiguous
        prefix is merged as it fills in, so hook order matches the
        in-process run exactly.  A job that failed in its worker parks as a
        :class:`_JobFailure` and blocks the prefix; once the pool is torn
        down (cleanly on completion, ``terminate`` on a stall), failed and
        undelivered jobs are re-run serially in the parent and the fold
        completes in order.
        KeyboardInterrupt and other parent-side exceptions still terminate
        and join the pool before propagating — no leaked worker processes,
        no un-joined pool.
        """
        n_jobs = len(jobs)
        n_todo = n_jobs - len(done)
        tasks = _chunked(units, pool_chunk_size(len(units), workers))
        # Deliveries arrive one task at a time, and a task runs its jobs
        # serially on one worker — so the per-delivery watchdog bound is the
        # per-job timeout scaled by the most jobs any task carries.
        per_task = max(sum(len(todo) for _, todo in task) for task in tasks)
        timeout = None if self.job_timeout_s is None else self.job_timeout_s * per_task
        pending: dict[int, FinishedSession | _JobFailure] = dict(done)
        next_index = 0
        delivered = 0
        stalled = False
        pool = mp_context().Pool(
            processes=workers, initializer=_init_matrix_worker, initargs=(simulators,)
        )
        try:
            iterator = pool.imap_unordered(_run_matrix_units, tasks)
            while delivered < n_todo:
                try:
                    batch = iterator.next(timeout)
                except StopIteration:  # pragma: no cover - defensive
                    break
                except multiprocessing.TimeoutError:
                    stalled = True
                    break
                for index, result in batch:
                    delivered += 1
                    pending[index] = result
                while next_index in pending and not isinstance(
                    pending[next_index], _JobFailure
                ):
                    fold(next_index, pending.pop(next_index))  # type: ignore[arg-type]
                    next_index += 1
        except BaseException:
            # Don't drain the queued remainder of the sweep just to report a
            # failure that already happened.
            pool.terminate()
            raise
        else:
            if stalled:
                # Workers have gone quiet past the watchdog: close() would
                # wait on them forever.
                pool.terminate()
            else:
                pool.close()
        finally:
            pool.join()

        failures = {
            index: result
            for index, result in pending.items()
            if isinstance(result, _JobFailure)
        }
        undelivered = [
            index
            for index in range(next_index, n_jobs)
            if index not in pending
        ]
        to_recover = sorted(failures.keys() | set(undelivered))
        if to_recover:
            reasons = [
                f"job {index}: {failures[index].error_type}: {failures[index].message}"
                if index in failures
                else f"job {index}: no result before job_timeout_s={self.job_timeout_s}"
                for index in to_recover
            ]
            warnings.warn(
                f"{len(to_recover)} parallel job(s) failed or stalled; "
                "re-running serially in the parent:\n  " + "\n  ".join(reasons),
                RuntimeWarning,
                stacklevel=3,
            )
            for index in to_recover:
                pending[index] = simulators.finish(*jobs[index])

        while next_index < n_jobs:
            result = pending.pop(next_index)
            assert not isinstance(result, _JobFailure)
            fold(next_index, result)
            next_index += 1
