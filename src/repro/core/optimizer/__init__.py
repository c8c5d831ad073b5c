"""Energy/QoS global optimizer: the constrained-optimisation scheduler core."""

from repro.core.optimizer.schedule import EventSpec, Assignment, Schedule
from repro.core.optimizer.ilp import BranchAndBoundSolver, relax_infeasible_deadlines
from repro.core.optimizer.optimizer import (
    GlobalOptimizer,
    WorkloadEstimator,
    ArrivalEstimator,
)

__all__ = [
    "EventSpec",
    "Assignment",
    "Schedule",
    "BranchAndBoundSolver",
    "relax_infeasible_deadlines",
    "GlobalOptimizer",
    "WorkloadEstimator",
    "ArrivalEstimator",
]
