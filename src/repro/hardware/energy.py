"""Fixed costs of changing the hardware configuration.

The paper measures processor energy with current-sense resistors sampled at
1 kHz.  In the simulator, the engines (:mod:`repro.runtime.engine`) account
energy per execution interval from the power table (active power during
event execution, idle power otherwise) plus the fixed costs for DVFS
transitions and core migrations defined here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.acmp import AcmpConfig


@dataclass(frozen=True)
class SwitchingCosts:
    """Fixed overheads for changing the hardware configuration.

    The paper reports roughly 100 µs for a frequency switch and 20 µs for a
    core migration; the energy of a switch is charged at the destination
    configuration's active power.
    """

    frequency_switch_ms: float = 0.1
    core_migration_ms: float = 0.02

    def switch_latency_ms(self, old: AcmpConfig | None, new: AcmpConfig) -> float:
        """Latency cost of moving from ``old`` to ``new`` (0 if unchanged)."""
        if old is None or old == new:
            return 0.0
        cost = 0.0
        if old.cluster_name != new.cluster_name:
            cost += self.core_migration_ms
        if old.frequency_mhz != new.frequency_mhz or old.cluster_name != new.cluster_name:
            cost += self.frequency_switch_ms
        return cost
