"""The PES scheduler facade.

:class:`PesScheduler` bundles the three PES components — the hybrid event
predictor, the global energy/QoS optimizer, and the control unit — together
with the reactive fallback (EBS) used for mis-predicted events and after
prediction is disabled.  A :class:`PesScheduler` instance is per-session
state; :meth:`PesScheduler.create` wires one up for a given application,
trained learner, and hardware platform.

The proactive runtime engine (:mod:`repro.runtime.engine`) drives the
scheduler through a small protocol:

* :meth:`start_round` — predict the next event sequence and compute the
  speculative schedule (called when no predictions are pending),
* :meth:`validate_event` — check an arriving event against the head of the
  pending predictions (match/mispredict/no-prediction), followed by
  :meth:`on_match` or :meth:`on_mispredict`,
* :meth:`observe_event` — feed the ground-truth event to the predictor and
  the arrival estimator,
* the engine then executes the speculative or reactive plan and reports
  back via :meth:`record_execution`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.control.control_unit import ControlUnit, MatchResult
from repro.core.optimizer.optimizer import ArrivalEstimator, GlobalOptimizer, WorkloadEstimator
from repro.core.optimizer.schedule import Schedule
from repro.core.predictor.hybrid import HybridEventPredictor
from repro.core.predictor.sequence_learner import EventSequenceLearner, PredictedEvent
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

    confidence_threshold: float = 0.70
    max_prediction_degree: int = 12
    disable_after_mispredictions: int = 3
    use_dom_analysis: bool = True
    arrival_conservatism: float = 0.8
    safety_margin_ms: float = 8.0

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
        # Negated, so that NaN fails too: a NaN margin would make every EBS
        # budget NaN and silently run each event on the fastest config.
        if not self.safety_margin_ms >= 0:
            raise ValueError("safety_margin_ms must be non-negative")


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
            safety_margin_ms=config.safety_margin_ms,
        )
        control = ControlUnit(disable_after=config.disable_after_mispredictions)
        return cls(
            predictor=predictor,
            optimizer=optimizer,
            control=control,
            fallback=EbsScheduler(safety_margin_ms=config.safety_margin_ms),
            config=config,
        )

    # -- engine protocol ------------------------------------------------------------

    @property
    def prediction_enabled(self) -> bool:
        return self.control.prediction_enabled

    def start_round(
        self,
        now_ms: float,
        outstanding: list[TraceEvent] | None = None,
        *,
        system: AcmpSystem | None = None,
    ) -> Schedule:
        """Predict the next event sequence and compute the speculative schedule.

        ``system`` overrides the platform the round is solved against — the
        dynamic thermal engine passes the instantaneously throttled platform
        so the speculative schedule only uses operating points the thermal
        governor currently admits.  ``None`` keeps the session platform.
        """
        if self.control.has_pending:
            raise RuntimeError("previous prediction round has not drained yet")
        predictions = self.predictor.predict_sequence() if self.prediction_enabled else []
        self.control.begin_round(predictions)
        schedule = self.optimizer.compute_schedule(
            now_ms, list(outstanding or []), predictions, system=system
        )
        return schedule

    def pending_predictions(self) -> list[PredictedEvent]:
        return list(self.control.pending)

    def validate_event(self, event_type: EventType) -> MatchResult:
        """Check an arriving event against the head of the predicted sequence."""
        return self.control.validate(event_type)

    def on_match(self, now_ms: float) -> None:
        self.control.confirm_match(now_ms)

    def on_mispredict(self, now_ms: float) -> None:
        self.control.handle_mispredict(now_ms)

    def observe_event(self, event: TraceEvent) -> None:
        """Feed ground truth to the predictor and the estimators."""
        self.predictor.observe(event.event_type, event.node_id, navigates=event.navigates)
        self.optimizer.arrival_estimator.record_arrival(event.event_type, event.arrival_ms)

    def record_execution(self, event_type: EventType, workload: DvfsModel) -> None:
        """Report a completed execution so workload calibration improves."""
        self.optimizer.workload_estimator.record(event_type, workload)

    # -- statistics --------------------------------------------------------------------

    @property
    def mispredictions(self) -> int:
        return self.control.mispredictions

    @property
    def commits(self) -> int:
        return self.control.commits

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
