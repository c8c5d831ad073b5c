"""Harness-hardening tests: worker crashes, stalls, and interrupts.

The parallel evaluator must degrade, never lose work silently:

* a job that raises in a worker comes back as a failure payload, the pool
  is torn down cleanly, and the job re-runs serially in the parent — the
  sweep's sessions (as the shard payload text each job hands on) and
  aggregates stay bit-identical to a serial run (with a ``RuntimeWarning``
  naming the recovered jobs),
* a *deterministic* bug fails again in the parent re-run and surfaces as
  the original exception — after the pool has been joined, with no leaked
  worker processes,
* the warning lists exactly the failed jobs, each with its error,
* ``job_timeout_s`` is a pool-wide progress watchdog: hung workers are
  terminated and the undelivered jobs recovered serially,
* a ``KeyboardInterrupt`` (Ctrl-C) mid-fold terminates and joins the pool
  before propagating.

The crash-simulation tests monkeypatch ``Simulator.run_scheme`` in the
parent and rely on ``fork`` workers inheriting the patch; they are skipped
on platforms whose pool start method is ``spawn`` (workers there re-import
a clean module).
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.runtime.parallel import MatrixSweep, ParallelEvaluator
from repro.runtime.simulator import SimulationSetup, Simulator
from repro.utils import mp_context

from pool_payloads import encoded, finalized, pool_payloads

fork_only = pytest.mark.skipif(
    mp_context().get_start_method() != "fork",
    reason="crash simulation needs fork workers to inherit the parent's monkeypatch",
)


def _in_worker() -> bool:
    return multiprocessing.parent_process() is not None


@pytest.fixture()
def small_traces(generator):
    return [generator.generate("cnn", seed=11), generator.generate("google", seed=12)]


@pytest.fixture()
def sweep(small_traces):
    return MatrixSweep(
        key="cell",
        setup=SimulationSetup(),
        traces=tuple(small_traces),
        schemes=("Interactive", "EBS"),
    )


@pytest.fixture()
def serial(small_traces, sweep):
    """The aggregates and payloads of an in-process run, before any patch."""
    simulator = Simulator(setup=sweep.setup)
    results = {scheme: simulator.run_scheme(small_traces, scheme) for scheme in sweep.schemes}
    aggregates = finalized(ParallelEvaluator(jobs=1).evaluate_matrix([sweep]))
    return aggregates, encoded(sweep.key, results)


@fork_only
class TestWorkerCrashRecovery:
    def test_worker_only_crash_recovers_serially(self, monkeypatch, sweep, serial):
        original = Simulator.run_scheme

        def crash_in_workers(self, traces, scheme, **kwargs):
            if _in_worker():
                raise RuntimeError("simulated worker crash")
            return original(self, traces, scheme, **kwargs)

        monkeypatch.setattr(Simulator, "run_scheme", crash_in_workers)
        evaluator = ParallelEvaluator(jobs=2)
        with pytest.warns(RuntimeWarning, match="re-running serially"):
            recovered = pool_payloads(evaluator, [sweep])
        # Recovery is invisible in the output: bit-identical to serial.
        assert recovered == serial

    def test_deterministic_bug_surfaces_original_exception(
        self, monkeypatch, small_traces
    ):
        def always_crash(self, traces, scheme, **kwargs):
            raise ValueError("deterministic poison job")

        monkeypatch.setattr(Simulator, "run_scheme", always_crash)
        sweep = MatrixSweep(
            key="cell",
            setup=SimulationSetup(),
            traces=tuple(small_traces),
            schemes=("Interactive",),
        )
        evaluator = ParallelEvaluator(jobs=2)
        with pytest.warns(RuntimeWarning, match="re-running serially"):
            with pytest.raises(ValueError, match="deterministic poison job"):
                evaluator.evaluate_matrix([sweep])
        # The pool was joined before the exception propagated: no leaked
        # worker processes.
        assert multiprocessing.active_children() == []

    def test_one_failing_scheme_fails_only_its_own_jobs(self, monkeypatch, sweep, serial):
        # A unit replays one trace under every scheme; a scheme that raises
        # must not take the unit's other jobs down with it.
        original = Simulator.run_scheme

        def crash_ebs_in_workers(self, traces, scheme, **kwargs):
            if _in_worker() and scheme == "EBS":
                raise RuntimeError("simulated EBS crash")
            return original(self, traces, scheme, **kwargs)

        monkeypatch.setattr(Simulator, "run_scheme", crash_ebs_in_workers)
        evaluator = ParallelEvaluator(jobs=2)
        with pytest.warns(RuntimeWarning, match="re-running serially") as record:
            recovered = pool_payloads(evaluator, [sweep])
        # Jobs 0-1 are Interactive, 2-3 EBS (global order: scheme, then trace).
        message = str(record[0].message)
        assert "2 parallel job(s) failed" in message
        assert "job 2: RuntimeError: simulated EBS crash" in message
        assert "job 3: RuntimeError: simulated EBS crash" in message
        assert "job 0:" not in message and "job 1:" not in message
        assert recovered == serial
        assert multiprocessing.active_children() == []

    def test_stalled_pool_is_terminated_and_recovered(self, monkeypatch, sweep, serial):
        original = Simulator.run_scheme

        def hang_in_workers(self, traces, scheme, **kwargs):
            if _in_worker():
                time.sleep(600)
            return original(self, traces, scheme, **kwargs)

        monkeypatch.setattr(Simulator, "run_scheme", hang_in_workers)
        evaluator = ParallelEvaluator(jobs=2, job_timeout_s=1.0)
        with pytest.warns(RuntimeWarning, match="re-running serially"):
            recovered = pool_payloads(evaluator, [sweep])
        assert recovered == serial
        assert multiprocessing.active_children() == []


class TestGenerationFailure:
    def test_failed_generation_fails_every_job_of_its_trace(self):
        from repro.traces.generator import TraceGenerator, TraceRecipes

        recipes = TraceRecipes(TraceGenerator(), (("cnn", 1), ("no-such-app", 2)))
        sweep = MatrixSweep(
            key="cell",
            setup=SimulationSetup(),
            traces=recipes,
            schemes=("Interactive", "EBS"),
        )
        evaluator = ParallelEvaluator(jobs=2)
        # Generation fails in the workers and again in the parent's re-run.
        with pytest.warns(RuntimeWarning, match="re-running serially") as record:
            with pytest.raises(KeyError, match="no-such-app"):
                evaluator.evaluate_matrix([sweep])
        # Trace 1 backs job 1 (Interactive) and job 3 (EBS), and nothing else.
        message = str(record[0].message)
        assert "2 parallel job(s) failed" in message
        assert "job 0:" not in message and "job 2:" not in message
        assert "job 1: KeyError" in message and "job 3: KeyError" in message
        assert multiprocessing.active_children() == []


class TestInterruptSafety:
    def test_keyboard_interrupt_mid_fold_joins_pool(self, small_traces):
        sweep = MatrixSweep(
            key="cell",
            setup=SimulationSetup(),
            traces=tuple(small_traces),
            schemes=("Interactive", "EBS"),
        )

        def interrupt(finished, aggregates):
            raise KeyboardInterrupt

        evaluator = ParallelEvaluator(jobs=2)
        with pytest.raises(KeyboardInterrupt):
            evaluator.evaluate_matrix([sweep], on_sweep_complete=interrupt)
        # terminate+join ran before the interrupt propagated.
        assert multiprocessing.active_children() == []


class TestSweepCompletionHook:
    def test_hook_fires_in_matrix_order_with_final_aggregates(self, small_traces):
        sweeps = [
            MatrixSweep(
                key=f"cell{i}",
                setup=SimulationSetup(),
                traces=tuple(small_traces),
                schemes=("Interactive",),
            )
            for i in range(3)
        ]
        seen: list[tuple[str, dict]] = []

        def finalise_now(sweep, cells):
            seen.append((sweep.key, {scheme: cell.finalize() for scheme, cell in cells.items()}))

        returned = ParallelEvaluator(jobs=2).evaluate_matrix(sweeps, on_sweep_complete=finalise_now)
        assert [key for key, _ in seen] == ["cell0", "cell1", "cell2"]
        # The cells were complete when the hook fired: what it finalised
        # then is what the end-of-run cells report.
        for key, aggregates in seen:
            assert aggregates == finalized(returned)[key]
