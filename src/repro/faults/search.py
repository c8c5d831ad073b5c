"""Adversarial fault search: find the spec that hurts the most per budget.

The fault subsystem makes wrongness a swept axis; this module makes it an
*optimised* one.  :func:`run_search` mutates :class:`FaultSpec` knobs under
a **fault-budget** constraint — the summed stationary effective rate mass
of every per-reading probability, so a bursty 5% rate honestly costs more
than a flat one — and hill-climbs (random init + mutate-best, with
periodic random restarts; no new deps) toward a target metric:

* ``pes_regression`` — PES total energy relative to EBS on the same
  faulted traces: the spec that most thoroughly destroys speculation's
  energy advantage,
* ``recovery_collapse`` — minimise the combined recovery rate: faults the
  schemes demonstrably cannot absorb,
* ``throttle_inflation`` — maximise throttle-induced latency slowdown on a
  live-thermal scenario (sensor faults only bite there).

Every candidate replays as a one-cell
:class:`~repro.runtime.parallel.MatrixSweep` through
:meth:`~repro.runtime.parallel.ParallelEvaluator.evaluate_matrix`, over
traces generated once per search, and is journaled through a
:class:`~repro.scenarios.checkpoint.ShardJournal` at (scheme, trace)
granularity: a search killed mid-candidate resumes without re-simulating
finished shards, and — because candidates are named deterministically,
the hill-climb replays its RNG from the journal's recorded scores, and
appends happen in a fixed order — the resumed journal, search log, and
final worst-case spec are byte-identical to an uninterrupted run's.

Found worst cases are meant to be committed as named presets in
:data:`repro.faults.spec.FAULT_PRESETS` with their regression artefact
(``results/FAULT_SEARCH_<target>.json``), continuously growing the preset
library instead of waiting for a human to imagine the next failure mode.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

from repro.faults.spec import (
    BatteryFaults,
    BurstModel,
    DvfsFaults,
    EventStreamFaults,
    FaultSpec,
    PredictorFaults,
    SensorFaults,
)
from repro.runtime.metrics import FinishedSession, SchemeAggregates, restore_session
from repro.runtime.parallel import ParallelEvaluator
from repro.runtime.simulator import SimulationSetup
from repro.scenarios.checkpoint import ShardJournal, _spec_key
from repro.scenarios.library import get_scenario
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import ScenarioSpec
from repro.utils import stable_seed

# -- targets ------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchTarget:
    """One optimisation objective over per-scheme evaluation summaries."""

    name: str
    description: str
    #: Default base scenario (overridable per search).
    scenario: str
    #: Default schemes to replay (overridable per search).
    schemes: tuple[str, ...]
    #: Maps ``{scheme: summary}`` to the scalar being maximised.
    score: Callable[[Mapping[str, Mapping[str, float]]], float]
    #: The score reads live thermal telemetry, so the base scenario must
    #: track temperature mid-session (``thermal_mode="dynamic"`` with a curve).
    needs_live_thermal: bool = False


def _score_pes_regression(per_scheme: Mapping[str, Mapping[str, float]]) -> float:
    baseline = per_scheme["EBS"]["total_energy_mj"]
    return per_scheme["PES"]["total_energy_mj"] / baseline if baseline > 0 else 0.0


def _score_recovery_collapse(per_scheme: Mapping[str, Mapping[str, float]]) -> float:
    injected = sum(summary["injected"] for summary in per_scheme.values())
    recovered = sum(summary["recovered"] for summary in per_scheme.values())
    return 1.0 - recovered / injected if injected else 0.0


def _score_throttle_inflation(per_scheme: Mapping[str, Mapping[str, float]]) -> float:
    slowdowns = [summary["throttle_slowdown"] for summary in per_scheme.values()]
    return sum(slowdowns) / len(slowdowns) if slowdowns else 0.0


SEARCH_TARGETS: dict[str, SearchTarget] = {
    "pes_regression": SearchTarget(
        name="pes_regression",
        description="maximise PES total energy relative to EBS",
        scenario="baseline_seen",
        schemes=("EBS", "PES"),
        score=_score_pes_regression,
    ),
    "recovery_collapse": SearchTarget(
        name="recovery_collapse",
        description="minimise the combined fault recovery rate",
        scenario="baseline_seen",
        schemes=("Interactive", "EBS"),
        score=_score_recovery_collapse,
    ),
    "throttle_inflation": SearchTarget(
        name="throttle_inflation",
        description="maximise throttle-induced latency slowdown",
        scenario="hot_chassis_live",
        schemes=("Interactive", "EBS"),
        score=_score_throttle_inflation,
        needs_live_thermal=True,
    ),
}


def list_search_targets() -> list[str]:
    return sorted(SEARCH_TARGETS)


def get_search_target(name: str) -> SearchTarget:
    try:
        return SEARCH_TARGETS[name]
    except KeyError:
        raise KeyError(
            f"unknown search target {name!r}; available: {', '.join(list_search_targets())}"
        ) from None


# -- knob space ---------------------------------------------------------------------


@dataclass(frozen=True)
class _Knob:
    """One mutable scalar of the candidate spec space."""

    path: str
    lo: float
    hi: float
    #: Rate knobs spend fault budget; magnitude knobs are free.
    is_rate: bool = False


def _knobs_for(dynamic_thermal: bool) -> tuple[_Knob, ...]:
    """The searchable knob set; sensor knobs only where a live sensor exists."""
    knobs = [
        _Knob("predictor.flip_rate", 0.0, 0.6, is_rate=True),
        _Knob("dvfs.fail_rate", 0.0, 0.6, is_rate=True),
        _Knob("events.drop_rate", 0.0, 0.3, is_rate=True),
        _Knob("events.duplicate_rate", 0.0, 0.3, is_rate=True),
        _Knob("events.jitter_rate", 0.0, 0.6, is_rate=True),
        _Knob("battery.sag_rate", 0.0, 0.6, is_rate=True),
        _Knob("battery.brownout_rate", 0.0, 0.25, is_rate=True),
        _Knob("battery.misreport_rate", 0.0, 0.6, is_rate=True),
        _Knob("events.jitter_ms", 0.0, 120.0),
        _Knob("battery.sag_power_scale", 1.0, 1.6),
        _Knob("battery.brownout_dwell_ms", 0.0, 400.0),
        # One shared burst chain configuration, applied to every category:
        # a correlated environment (thermal stress, a failing rail) tends to
        # degrade several seams at once, in the same stretches.
        _Knob("burst.enter_rate", 0.0, 0.25),
        _Knob("burst.exit_rate", 0.05, 1.0),
        _Knob("burst.burst_multiplier", 1.0, 8.0),
    ]
    if dynamic_thermal:
        knobs.append(_Knob("sensor.stuck_rate", 0.0, 0.2, is_rate=True))
        knobs.append(_Knob("sensor.noise_c", 0.0, 8.0))
    return tuple(knobs)


def _shared_burst(values: Mapping[str, float]) -> BurstModel | None:
    enter = values.get("burst.enter_rate", 0.0)
    multiplier = values.get("burst.burst_multiplier", 1.0)
    if enter <= 0.0 or multiplier <= 1.0:
        return None
    return BurstModel(
        enter_rate=enter,
        exit_rate=values.get("burst.exit_rate", 1.0),
        burst_multiplier=multiplier,
    )


def candidate_cost(values: Mapping[str, float], knobs: Sequence[_Knob]) -> float:
    """Fault-budget cost: summed stationary effective rate mass."""
    burst = _shared_burst(values)
    cost = 0.0
    for knob in knobs:
        if not knob.is_rate:
            continue
        rate = values.get(knob.path, 0.0)
        cost += burst.effective_rate(rate) if burst is not None else rate
    return cost


def _rebudget(
    values: dict[str, float], knobs: Sequence[_Knob], budget: float
) -> dict[str, float]:
    """Scale rate knobs down until the candidate fits the fault budget.

    ``effective_rate`` is monotone but not linear in the base rate (the
    burst-state probability clamps at 1), so one proportional scale can
    land slightly over; a few deterministic passes converge.
    """
    for _ in range(8):
        cost = candidate_cost(values, knobs)
        if cost <= budget or cost <= 0.0:
            break
        scale = budget / cost
        for knob in knobs:
            if knob.is_rate and knob.path in values:
                values[knob.path] *= scale
    return values


def _random_candidate(
    rng: random.Random, knobs: Sequence[_Knob], budget: float
) -> dict[str, float]:
    values = {knob.path: rng.uniform(knob.lo, knob.hi) for knob in knobs}
    return _rebudget(values, knobs, budget)


def _mutate(
    rng: random.Random,
    values: dict[str, float],
    knobs: Sequence[_Knob],
    budget: float,
) -> dict[str, float]:
    """Gaussian-perturb a few knobs of the incumbent, then re-fit the budget."""
    for _ in range(1 + rng.randrange(3)):
        knob = knobs[rng.randrange(len(knobs))]
        width = 0.25 * (knob.hi - knob.lo)
        values[knob.path] = min(
            knob.hi, max(knob.lo, values.get(knob.path, knob.lo) + rng.gauss(0.0, width))
        )
    return _rebudget(values, knobs, budget)


def spec_from_knobs(values: Mapping[str, float], *, name: str, seed: int) -> FaultSpec:
    """Materialise a knob assignment as a concrete :class:`FaultSpec`."""
    burst = _shared_burst(values)
    get = values.get
    return FaultSpec(
        name=name,
        seed=seed,
        predictor=PredictorFaults(flip_rate=get("predictor.flip_rate", 0.0), burst=burst),
        sensor=SensorFaults(
            stuck_rate=get("sensor.stuck_rate", 0.0),
            noise_c=get("sensor.noise_c", 0.0),
            burst=burst,
        ),
        dvfs=DvfsFaults(fail_rate=get("dvfs.fail_rate", 0.0), burst=burst),
        events=EventStreamFaults(
            drop_rate=get("events.drop_rate", 0.0),
            duplicate_rate=get("events.duplicate_rate", 0.0),
            jitter_rate=get("events.jitter_rate", 0.0),
            jitter_ms=get("events.jitter_ms", 0.0),
            burst=burst,
        ),
        battery=BatteryFaults(
            sag_rate=get("battery.sag_rate", 0.0),
            sag_power_scale=get("battery.sag_power_scale", 1.0),
            brownout_rate=get("battery.brownout_rate", 0.0),
            brownout_dwell_ms=get("battery.brownout_dwell_ms", 0.0),
            misreport_rate=get("battery.misreport_rate", 0.0),
            burst=burst,
        ),
        description="adversarial fault-search candidate",
    )


# -- evaluation + search driver -----------------------------------------------------


def _summarise(aggregates: SchemeAggregates) -> dict[str, float]:
    metrics, faults, thermal = aggregates.overall, aggregates.faults, aggregates.thermal
    return {
        "total_energy_mj": metrics.total_energy_mj,
        "qos_violation_rate": metrics.qos_violation_rate,
        "mean_latency_ms": metrics.mean_latency_ms,
        "injected": faults.injected if faults else 0,
        "recovered": faults.recovered if faults else 0,
        "recovery_rate": faults.recovery_rate if faults else 0.0,
        "energy_inflation": faults.energy_inflation if faults else 0.0,
        "battery_injected": faults.battery_injected if faults else 0,
        "battery_recovered": faults.battery_recovered if faults else 0,
        "throttle_slowdown": thermal.throttle_slowdown if thermal else 0.0,
    }


def search_spec(
    target: str,
    *,
    scenario: str | None = None,
    schemes: Sequence[str] | None = None,
    budget: float = 0.6,
    budget_evals: int = 24,
) -> tuple[SearchTarget, ScenarioSpec]:
    """Check a search's inputs (replays nothing); return its target and base scenario."""
    if budget < 0.0:
        raise ValueError(f"fault budget must be non-negative, got {budget}")
    if budget_evals < 1:
        raise ValueError(f"budget_evals must be at least 1, got {budget_evals}")
    target_def = get_search_target(target)
    scheme_tuple = tuple(schemes) if schemes is not None else target_def.schemes
    base = get_scenario(scenario or target_def.scenario)
    if target_def.needs_live_thermal and base.dynamic_thermal_model() is None:
        # A static-thermal scenario scores 0.0 for every candidate.
        raise ValueError(
            f"target {target!r} needs a live-thermal scenario (thermal_mode 'dynamic' "
            f"with a thermal curve); {base.name!r} has none"
        )
    return target_def, replace(base, schemes=scheme_tuple, faults=None)


def run_search(
    target: str,
    *,
    scenario: str | None = None,
    schemes: Sequence[str] | None = None,
    budget: float = 0.6,
    budget_evals: int = 24,
    seed: int = 0,
    journal: ShardJournal | None = None,
    resume: bool = False,
    runner: ScenarioRunner | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Hill-climb the fault-spec space toward a target metric.

    Returns the full search log: the fault-free baseline, every candidate
    in evaluation order with its spec/score/acceptance, and the best
    (worst-case) spec found.  Deterministic for fixed inputs; with a
    ``journal`` the search is additionally resumable at shard granularity
    and the resumed log is byte-identical to an uninterrupted one.
    """
    target_def, base_spec = search_spec(
        target, scenario=scenario, schemes=schemes, budget=budget, budget_evals=budget_evals
    )

    runner = runner or ScenarioRunner()
    sweep = runner.build_sweep(base_spec)
    # The sweep carries recipes; every cell replays the same traces, so
    # generate them once here rather than once per cell and scheme.
    traces = tuple(sweep.traces)
    learner = (
        runner.train_learner() if any("PES" in scheme for scheme in base_spec.schemes) else None
    )
    knobs = _knobs_for(dynamic_thermal=sweep.setup.thermal is not None)

    if journal is not None and resume:
        cells, shards = journal.open_for_resume()
    else:
        if journal is not None:
            journal.clear()
        cells, shards = {}, {}

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    evaluator = ParallelEvaluator(catalog=runner.catalog, jobs=runner.jobs)

    def run_cell(fault_spec: FaultSpec | None, cell_key: str) -> dict:
        """Per-scheme summaries, journal-backed at shard granularity."""
        stored = cells.get(cell_key)
        if stored is not None:
            return stored
        setup = SimulationSetup(
            system=sweep.setup.system, thermal=sweep.setup.thermal, faults=fault_spec
        )
        cell = replace(sweep, setup=setup, traces=traces)
        shard_keys = {
            (cell.key, scheme, index): f"{scheme}/{index}/{trace.app_name}"
            for scheme in base_spec.schemes
            for index, trace in enumerate(traces)
        }
        shard_map = shards.get(cell_key, {})
        precomputed: dict[tuple[str, str, int], FinishedSession] = {}
        for job, shard_key in shard_keys.items():
            # A payload that does not decode (another codec) is stale: its
            # session re-simulates.
            restored = restore_session(shard_map[shard_key]) if shard_key in shard_map else None
            if restored is not None:
                precomputed[job] = restored

        def record(key: str, scheme: str, index: int, session: FinishedSession) -> None:
            job = (key, scheme, index)
            if job not in precomputed:
                journal.append_shard(cell_key, shard_keys[job], session.payload)

        scheme_cells = evaluator.evaluate_matrix(
            [cell],
            learner=learner,
            encode=journal is not None,
            on_job_complete=None if journal is None else record,
            precomputed=precomputed or None,
        )[cell.key]
        per_scheme = {scheme: _summarise(agg.finalize()) for scheme, agg in scheme_cells.items()}
        cell_payload = {
            "spec": None if fault_spec is None else fault_spec.to_dict(),
            "metrics": per_scheme,
            "score": target_def.score(per_scheme),
        }
        if journal is not None:
            journal.append_cell(cell_key, cell_payload)
        cells[cell_key] = cell_payload
        return cell_payload

    baseline = run_cell(None, "baseline")
    note(f"baseline score {baseline['score']:.4f} on {base_spec.name}")

    # The hill-climb replays deterministically on resume: candidate knobs
    # depend only on this RNG and on the accept/reject history, which in
    # turn depends only on journaled scores.
    rng = random.Random(stable_seed("fault-search", seed, target, base_spec.name, budget))
    best: dict | None = None
    best_values: dict[str, float] | None = None
    log: list[dict] = []
    for index in range(budget_evals):
        if best_values is None or (index > 0 and index % 7 == 0):
            values = _random_candidate(rng, knobs, budget)
        else:
            values = _mutate(rng, dict(best_values), knobs, budget)
        candidate = spec_from_knobs(values, name=f"search{index:04d}", seed=seed)
        cell_key = _spec_key(candidate.to_dict())
        payload = run_cell(candidate, cell_key)
        accepted = best is None or payload["score"] > best["score"]
        log.append(
            {
                "name": candidate.name,
                "spec": payload["spec"],
                "cost": candidate_cost(values, knobs),
                "score": payload["score"],
                "accepted": accepted,
                "metrics": payload["metrics"],
            }
        )
        if accepted:
            best = payload
            best_values = values
        status = "new best" if accepted else f"best {best['score']:.4f}"
        note(f"eval {index + 1}/{budget_evals}: score {payload['score']:.4f} ({status})")

    best_entry = max(log, key=lambda entry: entry["score"])
    return {
        "target": target_def.name,
        "objective": target_def.description,
        "scenario": base_spec.name,
        "schemes": list(base_spec.schemes),
        "budget": budget,
        "budget_evals": budget_evals,
        "seed": seed,
        "baseline": {"metrics": baseline["metrics"], "score": baseline["score"]},
        "candidates": log,
        "best": best_entry,
    }
