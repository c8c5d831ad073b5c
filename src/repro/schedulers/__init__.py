"""Runtime schedulers: the reactive baselines the paper compares against.

* :class:`~repro.schedulers.interactive.InteractiveGovernor` — Android's
  default ``interactive`` CPU governor (QoS-agnostic, utilisation driven).
* :class:`~repro.schedulers.ondemand.OndemandGovernor` — the ``ondemand``
  governor (energy-leaning, slower to ramp).
* :class:`~repro.schedulers.ebs.EbsScheduler` — EBS, the state-of-the-art
  reactive QoS-aware event-based scheduler of Zhu et al.
* :class:`~repro.schedulers.oracle.OracleScheduler` — the oracle with a
  priori knowledge of the entire event sequence (upper bound).

PES itself lives in :mod:`repro.core`.
"""
