"""PES reproduction: proactive event scheduling for mobile Web computing.

Reproduction of *PES: Proactive Event Scheduling for Responsive and
Energy-Efficient Mobile Web Computing* (Feng & Zhu, ISCA 2019) as a
pure-Python, trace-driven simulation stack.

Typical usage::

    from repro import (
        AppCatalog, TraceGenerator, PredictorTrainer, Simulator, PesConfig,
    )

    catalog = AppCatalog()
    generator = TraceGenerator(catalog=catalog)
    training = generator.generate_many([p.name for p in catalog.seen()], 8)
    learner = PredictorTrainer(catalog=catalog).train(training).learner

    evaluation = generator.generate_many(catalog.names(), 3, base_seed=50_000)
    simulator = Simulator(catalog=catalog)
    results = simulator.compare(evaluation, ["Interactive", "EBS", "PES", "Oracle"],
                                learner=learner)
"""

from repro.hardware import (
    AcmpConfig,
    AcmpSystem,
    Cluster,
    ClusterKind,
    DvfsModel,
    PowerModel,
    PowerTable,
    SwitchingCosts,
    exynos_5410,
    get_platform,
    list_platforms,
    tegra_parker,
)
from repro.webapp import (
    AppCatalog,
    AppProfile,
    DomNode,
    DomTree,
    EventType,
    Interaction,
    QOS_TARGETS_MS,
    RenderingPipeline,
    SEEN_APPS,
    SemanticTree,
    UNSEEN_APPS,
    Viewport,
    qos_target_ms,
)
from repro.traces import (
    SessionConfig,
    Trace,
    TraceEvent,
    TraceGenerator,
    TraceSet,
    WorkloadModel,
    load_traces,
    save_traces,
)
from repro.schedulers import (
    EbsScheduler,
    InteractiveGovernor,
    OndemandGovernor,
    OracleScheduler,
)
from repro.core import (
    GlobalOptimizer,
    HybridEventPredictor,
    PesConfig,
    PesScheduler,
    PredictorTrainer,
    evaluate_accuracy,
)
from repro.runtime import (
    AggregateMetrics,
    SessionResult,
    SimulationSetup,
    Simulator,
    aggregate_results,
)

__version__ = "1.0.0"

__all__ = [
    # hardware
    "AcmpConfig",
    "AcmpSystem",
    "Cluster",
    "ClusterKind",
    "DvfsModel",
    "PowerModel",
    "PowerTable",
    "SwitchingCosts",
    "exynos_5410",
    "tegra_parker",
    "get_platform",
    "list_platforms",
    # webapp
    "AppCatalog",
    "AppProfile",
    "DomNode",
    "DomTree",
    "EventType",
    "Interaction",
    "QOS_TARGETS_MS",
    "qos_target_ms",
    "RenderingPipeline",
    "SemanticTree",
    "Viewport",
    "SEEN_APPS",
    "UNSEEN_APPS",
    # traces
    "Trace",
    "TraceEvent",
    "TraceSet",
    "TraceGenerator",
    "SessionConfig",
    "WorkloadModel",
    "save_traces",
    "load_traces",
    # schedulers
    "InteractiveGovernor",
    "OndemandGovernor",
    "EbsScheduler",
    "OracleScheduler",
    # core
    "PesScheduler",
    "PesConfig",
    "HybridEventPredictor",
    "GlobalOptimizer",
    "PredictorTrainer",
    "evaluate_accuracy",
    # runtime
    "Simulator",
    "SimulationSetup",
    "SessionResult",
    "AggregateMetrics",
    "aggregate_results",
]
