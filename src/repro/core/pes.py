"""The PES scheduler facade.

:class:`PesScheduler` bundles the three PES components — the hybrid event
predictor, the global energy/QoS optimizer, and the control unit — together
with the reactive fallback (EBS) used for mis-predicted events and after
prediction is disabled.  A :class:`PesScheduler` instance is per-session
state; :meth:`PesScheduler.create` wires one up for a given application,
trained learner, and hardware platform.

The proactive runtime engine (:mod:`repro.runtime.engine`) drives it with
:meth:`~PesScheduler.start_round` (predict, solve, and hand the round to the
control unit once the previous round has drained),
:meth:`~PesScheduler.observe_event` and :meth:`~PesScheduler.record_execution`,
and works on the control unit directly for the rest: ``validate`` checks an
arriving event against the head of the round, ``confirm_match`` pops the head
and returns its planned assignment, and ``handle_mispredict`` drops the round.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.control.control_unit import ControlUnit
from repro.core.optimizer.optimizer import ArrivalEstimator, GlobalOptimizer, WorkloadEstimator
from repro.core.predictor.hybrid import HybridEventPredictor
from repro.core.predictor.sequence_learner import (
    DEFAULT_CONFIDENCE_THRESHOLD,
    DEFAULT_MAX_DEGREE,
    EventSequenceLearner,
)
from repro.hardware.acmp import AcmpSystem
from repro.hardware.dvfs import DvfsModel
from repro.hardware.power import PowerTable
from repro.schedulers.ebs import EbsScheduler
from repro.traces.trace import TraceEvent
from repro.webapp.apps import AppProfile
from repro.webapp.events import EventType


@dataclass(frozen=True)
class PesConfig:
    """Tunable parameters of PES."""

    confidence_threshold: float = DEFAULT_CONFIDENCE_THRESHOLD
    max_prediction_degree: int = DEFAULT_MAX_DEGREE
    disable_after_mispredictions: int = 3
    use_dom_analysis: bool = True
    arrival_conservatism: float = 0.8

    def __post_init__(self) -> None:
        if not 0.0 < self.confidence_threshold <= 1.0:
            raise ValueError("confidence_threshold must be in (0, 1]")
        if self.max_prediction_degree <= 0:
            raise ValueError("max_prediction_degree must be positive")
        if self.disable_after_mispredictions <= 0:
            raise ValueError("disable_after_mispredictions must be positive")
        # Checked here, not only by ArrivalEstimator/EbsScheduler, so a bad
        # config fails at construction instead of after learner training.
        if not 0.0 < self.arrival_conservatism <= 1.0:
            raise ValueError("conservatism must be in (0, 1]")


@dataclass
class PesScheduler:
    """Per-session PES instance: predictor + optimizer + control unit."""

    predictor: HybridEventPredictor
    optimizer: GlobalOptimizer
    control: ControlUnit
    fallback: EbsScheduler
    config: PesConfig
    name: str = field(default="PES", init=False)

    # -- construction -----------------------------------------------------------

    @classmethod
    def create(
        cls,
        learner: EventSequenceLearner,
        profile: AppProfile,
        system: AcmpSystem,
        power_table: PowerTable,
        config: PesConfig | None = None,
    ) -> "PesScheduler":
        """Wire up a PES instance for one application session."""
        config = config or PesConfig()
        # A learner that crossed a pipe or came from JSON has writeable
        # weights again; read-only ones key every round without re-reading them.
        learner.model.freeze()
        tuned_learner = EventSequenceLearner(
            model=learner.model,
            encoder=learner.encoder,
            extractor=learner.extractor,
            confidence_threshold=config.confidence_threshold,
            max_degree=config.max_prediction_degree,
        )
        predictor = HybridEventPredictor(
            learner=tuned_learner,
            profile=profile,
            use_dom_analysis=config.use_dom_analysis,
        )
        optimizer = GlobalOptimizer(
            system=system,
            power_table=power_table,
            workload_estimator=WorkloadEstimator(profile=profile),
            arrival_estimator=ArrivalEstimator(conservatism=config.arrival_conservatism),
        )
        control = ControlUnit(disable_after=config.disable_after_mispredictions)
        return cls(
            predictor=predictor,
            optimizer=optimizer,
            control=control,
            fallback=EbsScheduler(),
            config=config,
        )

    # -- engine protocol ------------------------------------------------------------

    def start_round(self, now_ms: float, *, system: AcmpSystem | None = None) -> None:
        """Predict the next event sequence, solve it and begin the round.

        ``system`` overrides the platform the round is solved against — the
        dynamic thermal engine passes the instantaneously throttled platform
        so the speculative schedule only uses operating points the thermal
        governor currently admits.  ``None`` keeps the session platform.
        A round with no predictions has an empty window, whose schedule is
        empty, so it begins without building or solving one.
        """
        predictions = self.predictor.predict_sequence() if self.control.prediction_enabled else []
        if not predictions:
            self.control.begin_round(predictions, ())
            return
        schedule = self.optimizer.compute_schedule(now_ms, [], predictions, system=system)
        self.control.begin_round(predictions, schedule.assignments)

    def observe_event(self, event: TraceEvent) -> None:
        """Feed ground truth to the predictor and the estimators."""
        self.predictor.observe(event.event_type, event.node_id, navigates=event.navigates)
        self.optimizer.arrival_estimator.record_arrival(event.event_type, event.arrival_ms)

    def record_execution(self, event_type: EventType, workload: DvfsModel) -> None:
        """Report a completed execution so workload calibration improves."""
        self.optimizer.workload_estimator.record(event_type, workload)

    # -- lifecycle -------------------------------------------------------------------

    def reset(self) -> None:
        """Reset per-session state (new trace replay).

        Clears *everything* a replay mutates — predictor session state, the
        control unit, both optimizer estimators, and the EBS fallback's
        calibration — so a scheduler instance reused across traces
        (the per-app cache in :class:`~repro.runtime.simulator.Simulator`)
        behaves identically to a freshly constructed one.
        """
        self.predictor.reset()
        self.control.reset()
        self.optimizer.workload_estimator.reset()
        self.optimizer.arrival_estimator.reset()
        self.fallback.reset()
