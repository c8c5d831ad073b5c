"""DVFS analytical latency model (Eqn. 1 of the paper).

The paper models the execution time of an event's work on a configuration as

    T = Tmem + Ndep / f

where ``Tmem`` is the memory-bound portion that does not scale with CPU
frequency and ``Ndep`` is the number of CPU cycles that are not overlapped
with memory accesses.  The first two times an event is encountered its
latency is measured under two different frequencies and the two-equation
system is solved for ``Tmem`` and ``Ndep`` — reproduced here by
:func:`calibrate_two_point`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.acmp import AcmpConfig, AcmpSystem


@dataclass(frozen=True)
class DvfsModel:
    """Frequency-dependent latency model for one unit of work.

    Parameters
    ----------
    tmem_ms:
        Memory time in milliseconds; invariant to CPU frequency and cluster.
    ndep_mcycles:
        CPU-dependent work in mega-cycles (so that dividing by a frequency in
        GHz yields milliseconds: ``1e6 cycles / (1e9 cycles/s) = 1 ms``).
    """

    tmem_ms: float
    ndep_mcycles: float

    def __post_init__(self) -> None:
        # Negated comparisons, so that NaN fails them too.
        if not self.tmem_ms >= 0:
            raise ValueError("tmem_ms must be non-negative")
        if not self.ndep_mcycles >= 0:
            raise ValueError("ndep_mcycles must be non-negative")

    def latency_ms(self, system: AcmpSystem, config: AcmpConfig) -> float:
        """Predicted execution latency on ``config`` in milliseconds."""
        effective_ghz = system.effective_frequency_ghz(config)
        if effective_ghz <= 0:
            raise ValueError(f"configuration {config} has non-positive frequency")
        return self.tmem_ms + self.ndep_mcycles / effective_ghz

    def latency_at_ghz(self, effective_ghz: float) -> float:
        """Latency at an arbitrary effective frequency (used by governors)."""
        if effective_ghz <= 0:
            raise ValueError("effective frequency must be positive")
        return self.tmem_ms + self.ndep_mcycles / effective_ghz

    def scaled(self, factor: float) -> "DvfsModel":
        """Return a model for ``factor`` times the amount of work."""
        if factor < 0:
            raise ValueError("factor must be non-negative")
        return DvfsModel(self.tmem_ms * factor, self.ndep_mcycles * factor)


def calibrate_two_point(
    latency_a_ms: float,
    effective_ghz_a: float,
    latency_b_ms: float,
    effective_ghz_b: float,
) -> DvfsModel:
    """Solve Eqn. 1 from two (latency, frequency) measurements.

    Given measurements at two distinct effective frequencies (in GHz) the
    system

        latency_a = Tmem + Ndep / f_a
        latency_b = Tmem + Ndep / f_b

    has a unique solution.  Small negative values produced by measurement
    noise are clamped to zero, matching the defensive behaviour a real
    runtime needs.
    """
    if effective_ghz_a <= 0 or effective_ghz_b <= 0:
        raise ValueError("frequencies must be positive")
    if abs(effective_ghz_a - effective_ghz_b) < 1e-9:
        raise ValueError("calibration requires two distinct frequencies")
    inv_a = 1.0 / effective_ghz_a
    inv_b = 1.0 / effective_ghz_b
    ndep = (latency_a_ms - latency_b_ms) / (inv_a - inv_b)
    tmem = latency_a_ms - ndep * inv_a
    return DvfsModel(tmem_ms=max(tmem, 0.0), ndep_mcycles=max(ndep, 0.0))
