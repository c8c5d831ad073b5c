"""Seeded fault injection for resilience evaluation.

Declarative :class:`FaultSpec` bundles (predictor / thermal-sensor / DVFS /
event-stream / battery fault models, each optionally modulated by a
Gilbert–Elliott :class:`BurstModel`), the per-session
:class:`~repro.faults.injector.SessionFaultState` the engines draw them
from, and the adversarial fault-search driver in
:mod:`repro.faults.search`.  See
:mod:`repro.faults.spec` for the model semantics and the zero-rate
identity invariant.
"""

from repro.faults.spec import (
    FAULT_PRESETS,
    BatteryFaults,
    BurstModel,
    DvfsFaults,
    EventStreamFaults,
    FaultSpec,
    PredictorFaults,
    SensorFaults,
    get_fault_preset,
    list_fault_presets,
)

__all__ = [
    "BatteryFaults",
    "BurstModel",
    "DvfsFaults",
    "EventStreamFaults",
    "FAULT_PRESETS",
    "FaultSpec",
    "PredictorFaults",
    "SensorFaults",
    "get_fault_preset",
    "list_fault_presets",
]
