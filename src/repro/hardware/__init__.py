"""ACMP (big.LITTLE) hardware models: clusters, DVFS, power, and energy.

This package plays the role of the ODROID XU+E board and the DAQ power
measurement setup used in the paper.  Schedulers interact with the hardware
exclusively through :class:`~repro.hardware.acmp.AcmpConfig` tuples and the
latency/power models, which is the same interface the real system exposes.
"""
