"""ACMP (big.LITTLE) hardware models: clusters, DVFS, power, and energy.

This package plays the role of the ODROID XU+E board and the DAQ power
measurement setup used in the paper.  Schedulers interact with the hardware
exclusively through :class:`~repro.hardware.acmp.AcmpConfig` tuples and the
latency/power models, which is the same interface the real system exposes.
"""

from repro.hardware.acmp import AcmpConfig, Cluster, ClusterKind, AcmpSystem
from repro.hardware.dvfs import DvfsModel, calibrate_two_point
from repro.hardware.power import PowerModel, PowerTable
from repro.hardware.energy import SwitchingCosts
from repro.hardware.platforms import (
    exynos_5410,
    tegra_parker,
    derive_platform,
    get_platform,
    list_platforms,
)
from repro.hardware.thermal import (
    THERMAL_MODELS,
    ThermalModel,
    ThermalState,
    get_thermal_model,
    list_thermal_models,
)

__all__ = [
    "AcmpConfig",
    "Cluster",
    "ClusterKind",
    "AcmpSystem",
    "DvfsModel",
    "calibrate_two_point",
    "PowerModel",
    "PowerTable",
    "SwitchingCosts",
    "exynos_5410",
    "tegra_parker",
    "derive_platform",
    "get_platform",
    "list_platforms",
    "THERMAL_MODELS",
    "ThermalModel",
    "ThermalState",
    "get_thermal_model",
    "list_thermal_models",
]
