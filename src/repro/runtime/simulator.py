"""Experiment driver: replay traces under every scheduling scheme.

:class:`Simulator` owns the hardware model (platform, power table,
switching costs) and knows how to run a trace under each scheme —
reactive baselines, PES, and the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.pes import PesConfig, PesScheduler
from repro.core.predictor.sequence_learner import EventSequenceLearner
from repro.faults.spec import FaultSpec
from repro.hardware.acmp import AcmpSystem
from repro.hardware.energy import SwitchingCosts
from repro.hardware.platforms import exynos_5410
from repro.hardware.power import PowerModel, PowerTable
from repro.hardware.thermal import ThermalModel
from repro.runtime.engine import OracleEngine, ProactiveEngine, ReactiveEngine
from repro.runtime.metrics import SessionResult
from repro.schedulers.base import ReactiveScheduler
from repro.schedulers.ebs import EbsScheduler
from repro.schedulers.interactive import InteractiveGovernor
from repro.schedulers.ondemand import OndemandGovernor
from repro.schedulers.oracle import OracleScheduler
from repro.traces.trace import Trace, TraceSet
from repro.webapp.apps import AppCatalog

#: The reactive baselines, in evaluation-figure order — the single source
#: for scheme dispatch and scheme-name validation.
BASELINE_FACTORIES: dict[str, type[ReactiveScheduler]] = {
    "Interactive": InteractiveGovernor,
    "Ondemand": OndemandGovernor,
    "EBS": EbsScheduler,
}

#: Every scheme name ``run_scheme`` accepts.
KNOWN_SCHEMES: tuple[str, ...] = tuple(BASELINE_FACTORIES) + ("PES", "Oracle")


def check_schemes(schemes: Sequence[str], owner: str) -> None:
    """Reject an empty, unknown or repeated scheme list; ``owner`` names it."""
    if not schemes:
        raise ValueError(f"{owner} has no schemes")
    unknown = [scheme for scheme in schemes if scheme not in KNOWN_SCHEMES]
    if unknown:
        raise ValueError(f"unknown scheme {unknown[0]!r} in {owner}")
    if len(set(schemes)) != len(schemes):
        # A duplicated scheme would replay twice and silently double every
        # streamed aggregate (sessions, energy) for that scheme.
        raise ValueError(f"{owner} lists a scheme twice")


@dataclass
class SimulationSetup:
    """Hardware platform plus derived models used by every simulation.

    ``thermal`` enables *dynamic* thermal throttling: the engines thread a
    live :class:`~repro.hardware.thermal.ThermalState` for the named curve
    through every session replay, advancing temperature per event and
    capping the configuration space the schedulers plan over.  Leave it
    ``None`` for the pre-thermal behaviour (including platforms that were
    already *statically* throttled via
    :meth:`~repro.hardware.thermal.ThermalModel.constrain`).

    ``faults`` enables seeded fault injection (see :mod:`repro.faults`): each
    session replay opens its own deterministic
    :class:`~repro.faults.injector.SessionFaultState` and the engines draw
    predictor/sensor/DVFS/event-stream/battery faults from it.  A ``None``
    or zero-rate (``is_null``) spec opens no fault state at all, so it is
    bit-identical to the fault-free path.

    The engines read this object directly.  Frame timing is not part of a
    setup: it is fixed in :mod:`repro.webapp.rendering`.
    """

    system: AcmpSystem = field(default_factory=exynos_5410)
    power_model: PowerModel = field(default_factory=PowerModel)
    switching: SwitchingCosts = field(default_factory=SwitchingCosts)
    thermal: ThermalModel | None = None
    faults: FaultSpec | None = None
    power_table: PowerTable = field(init=False)

    def __post_init__(self) -> None:
        self.power_table = self.power_model.build_table(self.system)


@dataclass
class Simulator:
    """Runs traces under the scheduling schemes of the evaluation."""

    setup: SimulationSetup = field(default_factory=SimulationSetup)
    catalog: AppCatalog = field(default_factory=AppCatalog)

    def __post_init__(self) -> None:
        self._reactive = ReactiveEngine(self.setup)
        self._proactive = ProactiveEngine(self.setup)
        self._oracle = OracleEngine(self.setup)
        #: scheme name -> scheduler reused across traces and sweeps
        #: (``ReactiveEngine.run`` resets it before every replay, so reuse is
        #: result-identical).
        self._baseline_cache: dict[str, ReactiveScheduler] = {}
        #: app name -> (learner, config, scheduler): a PES sweep reuses one
        #: scheduler per application the way the reactive baselines reuse
        #: theirs; ``PesScheduler.reset`` (called by the engine before every
        #: replay) restores a reused instance to freshly-constructed state.
        #: The config key is always concrete (``None`` is normalised to the
        #: default ``PesConfig()``), and the learner is compared by value,
        #: so an equal retrained learner keeps hitting the cache.
        self._pes_cache: dict[str, tuple[EventSequenceLearner, PesConfig, PesScheduler]] = {}

    # -- single-trace runs ---------------------------------------------------------

    def run_reactive(self, trace: Trace, scheduler: ReactiveScheduler) -> SessionResult:
        return self._reactive.run(trace, scheduler)

    def run_pes(
        self,
        trace: Trace,
        learner: EventSequenceLearner,
        pes_config: PesConfig | None = None,
    ) -> SessionResult:
        pes = self._pes_scheduler(trace.app_name, learner, pes_config)
        return self._proactive.run(trace, pes)

    def _pes_scheduler(
        self,
        app_name: str,
        learner: EventSequenceLearner,
        pes_config: PesConfig | None,
    ) -> PesScheduler:
        config = pes_config if pes_config is not None else PesConfig()
        cached = self._pes_cache.get(app_name)
        if cached is not None:
            cached_learner, cached_config, scheduler = cached
            if cached_config == config and cached_learner == learner:
                return scheduler
        scheduler = PesScheduler.create(
            learner=learner,
            profile=self.catalog.get(app_name),
            system=self.setup.system,
            power_table=self.setup.power_table,
            config=config,
        )
        self._pes_cache[app_name] = (learner, config, scheduler)
        return scheduler

    def run_oracle(self, trace: Trace, oracle: OracleScheduler | None = None) -> SessionResult:
        return self._oracle.run(trace, oracle)

    # -- scheme sweeps --------------------------------------------------------------

    def run_scheme(
        self,
        traces: TraceSet | Sequence[Trace],
        scheme: str,
        *,
        learner: EventSequenceLearner | None = None,
        pes_config: PesConfig | None = None,
    ) -> list[SessionResult]:
        """Run every trace under one named scheme.

        ``scheme`` is one of ``"Interactive"``, ``"Ondemand"``, ``"EBS"``,
        ``"PES"`` (requires ``learner``), or ``"Oracle"``.  Dispatch happens
        once per sweep: baselines reuse a single scheduler instance across
        traces (``ReactiveEngine.run`` resets it before each replay).
        """
        factory = BASELINE_FACTORIES.get(scheme)
        if factory is not None:
            scheduler = self._baseline_cache.get(scheme)
            if scheduler is None:
                scheduler = factory()
                self._baseline_cache[scheme] = scheduler
            return [self.run_reactive(trace, scheduler) for trace in traces]
        if scheme == "PES":
            if learner is None:
                raise ValueError("running PES requires a trained learner")
            return [self.run_pes(trace, learner, pes_config) for trace in traces]
        if scheme == "Oracle":
            return [self.run_oracle(trace) for trace in traces]
        raise ValueError(f"unknown scheme {scheme!r}")
