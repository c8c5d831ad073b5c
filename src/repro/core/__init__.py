"""PES core: the paper's primary contribution.

* :mod:`repro.core.predictor` — hybrid event prediction (statistical
  sequence learner + DOM analysis).
* :mod:`repro.core.optimizer` — global energy/QoS constrained optimisation
  of the speculative schedule (ILP formulation, Eqn. 2–5).
* :mod:`repro.core.control` — pending frame buffer and the commit/squash
  control unit.
* :mod:`repro.core.pes` — the :class:`~repro.core.pes.PesScheduler` facade
  that bundles the three components with their tuning parameters.
"""
