"""DVFS analytical latency model (Eqn. 1 of the paper).

The paper models the execution time of an event's work on a configuration as

    T = Tmem + Ndep / f

where ``Tmem`` is the memory-bound portion that does not scale with CPU
frequency and ``Ndep`` is the number of CPU cycles that are not overlapped
with memory accesses.  In the paper the first two times an event is
encountered its latency is measured under two different frequencies and
the two-equation system is solved for ``Tmem`` and ``Ndep``; here each
event's trace carries its model directly (:class:`DvfsModel`).
"""

from __future__ import annotations

from collections import namedtuple

from repro.hardware.acmp import AcmpConfig, AcmpSystem
from repro.utils import ValidatedRecord


class DvfsModel(ValidatedRecord, namedtuple("DvfsModel", "tmem_ms ndep_mcycles")):
    """Frequency-dependent latency model for one unit of work.

    Parameters
    ----------
    tmem_ms:
        Memory time in milliseconds; invariant to CPU frequency and cluster.
    ndep_mcycles:
        CPU-dependent work in mega-cycles (so that dividing by a frequency in
        GHz yields milliseconds: ``1e6 cycles / (1e9 cycles/s) = 1 ms``).
    """

    __slots__ = ()

    def __new__(cls, tmem_ms: float, ndep_mcycles: float) -> DvfsModel:
        # Negated comparisons, so that NaN fails them too.
        if not tmem_ms >= 0:
            raise ValueError("tmem_ms must be non-negative")
        if not ndep_mcycles >= 0:
            raise ValueError("ndep_mcycles must be non-negative")
        return tuple.__new__(cls, (tmem_ms, ndep_mcycles))

    def latency_ms(self, system: AcmpSystem, config: AcmpConfig) -> float:
        """Predicted execution latency on ``config`` in milliseconds."""
        effective_ghz = system.effective_frequency_ghz(config)
        if effective_ghz <= 0:
            raise ValueError(f"configuration {config} has non-positive frequency")
        return self.tmem_ms + self.ndep_mcycles / effective_ghz
