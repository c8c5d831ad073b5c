"""Run scenario specs end-to-end and serialise their results.

:class:`ScenarioRunner` turns each :class:`~repro.scenarios.spec.ScenarioSpec`
into a :class:`~repro.runtime.parallel.MatrixSweep` — regime-shaped traces,
a platform setup with the regime's frequency cap applied — and fans every
(scenario x scheme x trace) job through one
:meth:`~repro.runtime.parallel.ParallelEvaluator.evaluate_matrix` pool with
streaming per-scenario aggregation.  Every replay is deterministic, so any
``jobs`` value produces bit-identical per-scenario aggregates.

Results serialise to a plain-JSON schema (``results/SCENARIOS_*.json``)
that the ``scenarios compare`` subcommand and external tooling can consume
without importing this package's classes.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.core.predictor.sequence_learner import EventSequenceLearner
from repro.core.predictor.training import PredictorTrainer
from repro.runtime.metrics import (
    AggregateMetrics,
    FaultAggregate,
    FinishedSession,
    SchemeAggregates,
    StreamingSweepAggregator,
    ThermalAggregate,
    restore_session,
)
from repro.runtime.parallel import MatrixSweep, ParallelEvaluator
from repro.runtime.simulator import SimulationSetup
from repro.scenarios.checkpoint import ArtefactError, MatrixJournal, ShardJournal, _spec_key
from repro.scenarios.spec import ScenarioSpec
from repro.traces.generator import TraceGenerator
from repro.utils import write_json_atomic
from repro.webapp.apps import AppCatalog, SEEN_APPS


@dataclass
class ScenarioResult:
    """Aggregated outcome of one scenario across its schemes."""

    spec: ScenarioSpec
    aggregates: dict[str, SchemeAggregates]

    def normalised_energy(self) -> dict[str, float | None]:
        """Total energy of each scheme relative to the scenario's baseline.

        ``None`` marks schemes that cannot be normalised because the
        baseline aggregated to non-positive energy (e.g. a degenerate
        zero-event regime) — the table renderers print those as ``n/a``
        instead of dividing by zero.
        """
        base = self.aggregates[self.spec.baseline].overall.total_energy_mj
        if base <= 0:
            return {scheme: None for scheme in self.aggregates}
        return {
            scheme: aggregates.overall.total_energy_mj / base
            for scheme, aggregates in self.aggregates.items()
        }

    def qos_violation(self) -> dict[str, float]:
        return {
            scheme: aggregates.overall.qos_violation_rate
            for scheme, aggregates in self.aggregates.items()
        }

    # -- serialisation ----------------------------------------------------------

    def to_dict(self) -> dict:
        schemes: dict[str, dict] = {}
        for scheme, aggregates in self.aggregates.items():
            cell = {
                "overall": asdict(aggregates.overall),
                "per_app": {
                    app: asdict(metrics) for app, metrics in aggregates.per_app.items()
                },
            }
            if aggregates.thermal is not None:
                # Only dynamic-thermal cells carry the block, so static and
                # thermal-free artefacts (including the committed golden
                # fixture) keep their exact byte shape.
                cell["thermal"] = aggregates.thermal.to_dict()
            if aggregates.faults is not None:
                # Same convention: only fault-injected cells carry the block.
                cell["faults"] = aggregates.faults.to_dict()
            schemes[scheme] = cell
        return {
            "spec": self.spec.to_dict(),
            "schemes": schemes,
            "normalised_energy": self.normalised_energy(),
            "qos_violation": self.qos_violation(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioResult":
        aggregates = {
            scheme: SchemeAggregates(
                overall=AggregateMetrics(**cell["overall"]),
                per_app={
                    app: AggregateMetrics(**metrics)
                    for app, metrics in cell["per_app"].items()
                },
                thermal=(
                    ThermalAggregate.from_dict(cell["thermal"])
                    if cell.get("thermal") is not None
                    else None
                ),
                faults=(
                    FaultAggregate.from_dict(cell["faults"])
                    if cell.get("faults") is not None
                    else None
                ),
            )
            for scheme, cell in payload["schemes"].items()
        }
        return cls(spec=ScenarioSpec.from_dict(payload["spec"]), aggregates=aggregates)


@dataclass
class ScenarioRunner:
    """Expands scenario specs into matrix sweeps and runs them."""

    catalog: AppCatalog = field(default_factory=AppCatalog)
    jobs: int = 1
    #: Traces per seen app used when a PES scenario needs a learner and the
    #: caller did not supply one.
    train_traces_per_app: int = 4
    train_seed: int = 0
    #: When ``True``, specs that resolve to the same hardware configuration
    #: (platform variant, regime cap, thermal curve + ambient + mode, fault
    #: spec, PES tuning) share one :class:`SimulationSetup` object and a
    #: ``setup_key`` tag, so
    #: :meth:`~repro.runtime.parallel.ParallelEvaluator.evaluate_matrix`
    #: workers build one simulator per distinct configuration instead of
    #: one per spec.  The fleet layer turns this on — a 200-device
    #: population typically draws from a dozen configurations.
    share_setups: bool = False
    #: Trained learners keyed by the fields that define them — see
    #: :meth:`train_learner`.
    _trained: dict[tuple[int, int], EventSequenceLearner] = field(
        default_factory=dict, init=False, repr=False
    )
    _setup_cache: dict[str, tuple[SimulationSetup, object]] = field(
        default_factory=dict, init=False, repr=False
    )

    # -- building blocks --------------------------------------------------------

    def build_sweep(self, spec: ScenarioSpec) -> MatrixSweep:
        """Derive a scenario's trace recipes and wire up its platform setup.

        The sweep carries :class:`~repro.traces.generator.TraceRecipes`
        (``SeedSequence`` substream seeds, as
        ``generate_many(..., independent_streams=True)``); the traces are
        generated by whoever replays them.
        """
        regime = spec.resolved_regime()
        generator = TraceGenerator(
            catalog=self.catalog,
            session=regime.session,
            workload_params=regime.workload_params,
        )
        traces = generator.recipes(
            list(spec.resolved_apps()),
            spec.traces_per_app,
            base_seed=spec.seed,
            independent_streams=True,
        )
        setup_key: str | None = None
        pes_config = spec.pes
        if self.share_setups:
            # Everything that feeds the SimulationSetup (plus the PES
            # tuning, which rides along in the sweep), canonically
            # serialised: two specs with equal keys get the *same* setup
            # and pes objects (evaluate_matrix validates that identity).
            setup_key = json.dumps(
                {
                    "variant": spec.platform_variant().label,
                    "regime": spec.regime,
                    "thermal_mode": spec.thermal_mode,
                    "ambient_c": spec.ambient_c,
                    "faults": spec.faults.to_dict() if spec.faults is not None else None,
                    "pes": asdict(spec.pes) if spec.pes is not None else None,
                },
                sort_keys=True,
            )
            cached = self._setup_cache.get(setup_key)
            if cached is None:
                cached = (
                    SimulationSetup(
                        system=spec.system(),
                        thermal=spec.dynamic_thermal_model(),
                        faults=spec.faults,
                    ),
                    spec.pes,
                )
                self._setup_cache[setup_key] = cached
            setup, pes_config = cached
        else:
            setup = SimulationSetup(
                system=spec.system(),
                thermal=spec.dynamic_thermal_model(),
                faults=spec.faults,
            )
        return MatrixSweep(
            key=spec.name,
            setup=setup,
            traces=traces,
            schemes=spec.schemes,
            pes_config=pes_config,
            setup_key=setup_key,
        )

    def train_learner(self) -> EventSequenceLearner:
        """Train (once per training configuration) the default PES predictor.

        The training inputs are ``train_traces_per_app`` and ``train_seed``,
        so the cache is keyed on exactly that pair: mutating either field
        after a first :meth:`run` trains a fresh learner instead of silently
        returning the stale one, while repeated runs with unchanged fields
        keep hitting the cached learner (and, downstream, the per-app warm
        PES schedulers that compare learners by value).
        """
        key = (self.train_traces_per_app, self.train_seed)
        learner = self._trained.get(key)
        if learner is None:
            generator = TraceGenerator(catalog=self.catalog)
            training = generator.generate_many(
                list(SEEN_APPS), self.train_traces_per_app, base_seed=self.train_seed
            )
            learner = PredictorTrainer(catalog=self.catalog).train(training).learner
            self._trained[key] = learner
        return learner

    # -- execution --------------------------------------------------------------

    def run(
        self,
        specs: Sequence[ScenarioSpec],
        *,
        learner: EventSequenceLearner | None = None,
        journal: MatrixJournal | None = None,
        shards: ShardJournal | None = None,
        resume: bool = False,
    ) -> list[ScenarioResult]:
        """Run every scenario, returning one result per spec in spec order.

        With a ``journal``, every finished scenario is checkpointed the
        moment its last session folds (crash-tolerance for long matrix
        runs).  ``resume=True`` additionally skips scenarios already
        journaled under an exactly-matching spec; because every replay is
        deterministic and result serialisation round-trips losslessly, a
        resumed run's results — and any artefact written from them — are
        byte-identical to an uninterrupted run's.  Without ``resume`` an
        existing journal is cleared first, so a fresh run never mixes in
        stale cells.

        With a ``shards`` journal, checkpointing goes one level finer:
        every (scheme, trace) session is journaled the moment it folds, so
        ``resume=True`` skips re-simulating the sessions of a cell the
        crash interrupted *mid-cell* — their results are restored from the
        journal and folded at their original position, keeping aggregates,
        hook order, the final artefact, *and the journal file itself*
        byte-identical to an uninterrupted run.  Cells are matched by
        serialised spec content, so editing the matrix invalidates exactly
        the cells that changed, and a shard whose payload does not decode
        (another codec) re-simulates.  Each session's payload is encoded
        where it finished; the parent appends it as it is.
        """
        spec_list = list(specs)
        if not spec_list:
            return []
        shard_map = _open_shards(shards, resume)
        completed: dict[str, ScenarioResult] = {}
        if journal is not None:
            if resume:
                # A resume that resumes nothing is usually a mistake — a
                # mistyped --out, a journal cleared by a completed run, or a
                # matrix edited since the crash.  The run itself is still
                # correct (every cell replays), so warn rather than fail.
                if not journal.path.exists():
                    warnings.warn(
                        f"--resume requested but no journal exists at "
                        f"{journal.path}; running every scenario from scratch",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                else:
                    # Truncate any torn tail *before* reading completed
                    # cells, so the appends this resumed run makes can
                    # never concatenate onto a half-written last line.
                    journal.open_for_resume()
                    completed = journal.completed_results(spec_list)
                    if not completed:
                        warnings.warn(
                            f"--resume requested but the journal at "
                            f"{journal.path} matches none of the "
                            f"{len(spec_list)} scenario spec(s) — the matrix "
                            f"changed since it was written; running every "
                            f"scenario from scratch",
                            RuntimeWarning,
                            stacklevel=2,
                        )
            else:
                journal.clear()
        todo = [spec for spec in spec_list if spec.name not in completed]
        by_key = {spec.name: spec for spec in todo}

        def checkpoint(sweep: MatrixSweep, cells: dict[str, StreamingSweepAggregator]) -> None:
            aggregates = {scheme: cell.finalize() for scheme, cell in cells.items()}
            result = completed[sweep.key] = ScenarioResult(by_key[sweep.key], aggregates)
            if journal is not None:
                journal.append(result)

        self._replay(todo, learner, shards, shard_map, checkpoint)
        return [completed[spec.name] for spec in spec_list]

    def run_cells(
        self,
        specs: Sequence[ScenarioSpec],
        *,
        learner: EventSequenceLearner | None = None,
        shards: ShardJournal | None = None,
        resume: bool = False,
    ) -> dict[str, dict[str, StreamingSweepAggregator]]:
        """Replay every scenario and return its cells, unfinalised.

        The cells are ``{spec name: {scheme: StreamingSweepAggregator}}`` in
        spec order; no :class:`ScenarioResult` is built.  ``shards`` and
        ``resume`` work as in :meth:`run`.
        """
        return self._replay(list(specs), learner, shards, _open_shards(shards, resume))

    def _replay(
        self,
        specs: list[ScenarioSpec],
        learner: EventSequenceLearner | None,
        shards: ShardJournal | None,
        shard_map: dict[str, dict[str, dict]],
        on_sweep_complete: Callable[[MatrixSweep, dict[str, StreamingSweepAggregator]], None]
        | None = None,
    ) -> dict[str, dict[str, StreamingSweepAggregator]]:
        """Replay ``specs`` as one matrix, restoring and journaling shards."""
        if learner is None and any("PES" in spec.schemes for spec in specs):
            learner = self.train_learner()
        sweeps = [self.build_sweep(spec) for spec in specs]
        cell_keys = {spec.name: _spec_key(spec.to_dict()) for spec in specs}
        precomputed: dict[tuple[str, str, int], FinishedSession] = {}
        for spec in specs:
            for shard_key, payload in shard_map.get(cell_keys[spec.name], {}).items():
                scheme, _, trace_index = shard_key.rpartition("/")
                if not scheme or not trace_index.isdigit():
                    continue
                restored = restore_session(payload)
                if restored is not None:
                    precomputed[(spec.name, scheme, int(trace_index))] = restored

        def record_session(
            key: str, scheme: str, trace_index: int, session: FinishedSession
        ) -> None:
            if (key, scheme, trace_index) not in precomputed:
                shards.append_shard(cell_keys[key], f"{scheme}/{trace_index}", session.payload)

        return ParallelEvaluator(catalog=self.catalog, jobs=self.jobs).evaluate_matrix(
            sweeps,
            learner=learner,
            encode=shards is not None,
            on_sweep_complete=on_sweep_complete,
            on_job_complete=None if shards is None else record_session,
            precomputed=precomputed or None,
        )


def _open_shards(shards: ShardJournal | None, resume: bool) -> dict[str, dict[str, dict]]:
    """The shard journal's records by cell on ``resume``; otherwise clear it."""
    if shards is None:
        return {}
    if resume:
        return shards.open_for_resume()[1]
    shards.clear()
    return {}


def results_to_rows(
    results: Sequence[ScenarioResult],
) -> dict[str, dict[str, AggregateMetrics]]:
    """Scenario -> scheme -> overall metrics, the shape the
    :mod:`repro.analysis.reporting` scenario tables consume."""
    return {
        result.spec.name: {
            scheme: aggregates.overall for scheme, aggregates in result.aggregates.items()
        }
        for result in results
    }


# -- result artefacts ------------------------------------------------------------------


def results_to_payload(
    results: Sequence[ScenarioResult], *, matrix: str | None = None
) -> dict:
    """The JSON payload of a scenario run (schema of ``SCENARIOS_*.json``).

    The payload is a pure function of the results: the worker count used to
    produce them is deliberately *not* recordable.  An always-``null``
    ``jobs`` key is kept for schema compatibility with older artefacts —
    embedding the real value made ``scenarios run`` write different files
    for ``--jobs 1`` and ``--jobs 4`` even though the results were
    bit-identical, breaking byte-level artefact diffing.
    """
    return {
        "matrix": matrix,
        "jobs": None,
        "n_scenarios": len(results),
        "scenarios": [result.to_dict() for result in results],
    }


def write_results(
    results: Sequence[ScenarioResult],
    path: str | Path,
    *,
    matrix: str | None = None,
) -> Path:
    """Atomically write a ``SCENARIOS_*.json`` artefact.

    Routed through :func:`repro.utils.write_json_atomic` (temp sibling,
    fsync, :func:`os.replace`), so a crash mid-write can never leave a
    truncated artefact at ``path`` — readers see either the old complete
    file or the new complete file.
    """
    payload = results_to_payload(results, matrix=matrix)
    return write_json_atomic(payload, path)


def load_results(path: str | Path) -> tuple[dict, list[ScenarioResult]]:
    """Read a ``SCENARIOS_*.json`` artefact back into result objects.

    Raises :class:`~repro.scenarios.checkpoint.ArtefactError` when the file
    cannot be read, when it holds corrupt or truncated JSON (naming the file
    and the parse position instead of surfacing a bare decode error), and
    when the JSON is not a results artefact, naming the file and the entry
    that does not parse.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise ArtefactError(f"results artefact {path} cannot be read: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ArtefactError(
            f"results artefact {path} is corrupt or truncated: {exc.msg} at "
            f"line {exc.lineno} column {exc.colno} (char {exc.pos})"
        ) from exc
    entries = payload.get("scenarios") if isinstance(payload, dict) else None
    if not isinstance(entries, list):
        raise ArtefactError(f"results artefact {path} has no 'scenarios' list")
    results: list[ScenarioResult] = []
    for index, entry in enumerate(entries):
        try:
            results.append(ScenarioResult.from_dict(entry))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ArtefactError(f"results artefact {path}: bad scenarios[{index}]: {exc!r}") from exc
    return payload, results
