"""Per-event compute workload model.

Each event's CPU work is a :class:`~repro.hardware.dvfs.DvfsModel`
(``Tmem`` + ``Ndep``).  The magnitudes are calibrated so that, on the big
cluster at its maximum frequency, typical events land where the paper's
QoS analysis needs them:

* ``load``  — roughly 1–2.5 s against a 3 s target,
* ``tap``   — roughly 80–250 ms against a 300 ms target, with a per-app
  fraction of "heavy" taps that exceed the target even at maximum
  performance (the paper's Type I events),
* ``move``  — roughly 8–25 ms against a 33 ms target, again with a small
  heavy tail.

The distributions are log-normal (long-tailed, like real callback work) and
scaled by the application's ``workload_scale``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.hardware.dvfs import DvfsModel
from repro.webapp.apps import AppProfile
from repro.webapp.events import EventType, Interaction, interaction_of


@dataclass(frozen=True)
class WorkloadParams:
    """Log-normal workload parameters for one interaction class.

    ``ndep_median_mcycles`` / ``ndep_sigma`` describe the CPU-dependent work;
    ``tmem_median_ms`` / ``tmem_sigma`` the frequency-invariant memory time.
    ``heavy_ndep_mcycles`` is the median used for heavy (Type I candidate)
    events, drawn with probability given by the application profile.
    """

    ndep_median_mcycles: float
    ndep_sigma: float
    tmem_median_ms: float
    tmem_sigma: float
    heavy_ndep_mcycles: float

    def __post_init__(self) -> None:
        # Negated comparisons, so that NaN fails them too.
        for name in ("ndep_median_mcycles", "ndep_sigma", "tmem_median_ms", "tmem_sigma", "heavy_ndep_mcycles"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"WorkloadParams.{name} must be non-negative and finite")


#: Default workload parameters per interaction class.
INTERACTION_WORKLOADS: Mapping[Interaction, WorkloadParams] = {
    Interaction.LOAD: WorkloadParams(
        ndep_median_mcycles=1900.0,
        ndep_sigma=0.25,
        tmem_median_ms=260.0,
        tmem_sigma=0.3,
        heavy_ndep_mcycles=3800.0,
    ),
    Interaction.TAP: WorkloadParams(
        ndep_median_mcycles=260.0,
        ndep_sigma=0.45,
        tmem_median_ms=18.0,
        tmem_sigma=0.4,
        heavy_ndep_mcycles=640.0,
    ),
    Interaction.MOVE: WorkloadParams(
        ndep_median_mcycles=14.0,
        ndep_sigma=0.35,
        tmem_median_ms=2.5,
        tmem_sigma=0.35,
        heavy_ndep_mcycles=48.0,
    ),
}


def check_workload_params(params: Mapping[Interaction, WorkloadParams]) -> None:
    """Reject a per-interaction mapping that leaves an interaction out."""
    for interaction in Interaction:
        if interaction not in params:
            raise ValueError(
                f"workload_params has no entry for the {interaction.value!r} interaction"
            )


@dataclass
class WorkloadModel:
    """Samples per-event workloads for an application.

    The model also answers "how heavy would this event *type* typically be"
    without sampling, which the schedulers use when they have to provision
    for a predicted event whose concrete workload has not been measured yet.

    Construction tabulates, per event type, everything :meth:`sample` needs
    besides its draws: the heavy-tail probability, the sigmas and ``np.log``
    of the three scaled medians, computed with the very expressions the
    draws used to evaluate per event, so every sample keeps its bits.
    """

    profile: AppProfile
    params: Mapping[Interaction, WorkloadParams] = None  # type: ignore[assignment]
    #: Event type -> (heavy probability, log heavy median, log median,
    #: ndep sigma, log tmem median, tmem sigma).
    _table: dict[EventType, tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.params is None:
            self.params = dict(INTERACTION_WORKLOADS)
        check_workload_params(self.params)
        scale = self.profile.workload_scale
        rows = {}
        for interaction in Interaction:
            params = self.params[interaction]
            rows[interaction] = (
                np.log(params.heavy_ndep_mcycles * scale),
                np.log(params.ndep_median_mcycles * scale),
                params.ndep_sigma,
                np.log(params.tmem_median_ms * scale),
                params.tmem_sigma,
            )
        self._table = {
            event_type: (self.heavy_probability(event_type),) + rows[interaction_of(event_type)]
            for event_type in EventType
        }

    def heavy_probability(self, event_type: EventType) -> float:
        """Probability that an event of this type is drawn from the heavy tail."""
        interaction = interaction_of(event_type)
        if interaction is Interaction.LOAD:
            return self.profile.heavy_tap_fraction * 0.3
        if interaction is Interaction.TAP:
            return self.profile.heavy_tap_fraction
        return self.profile.heavy_tap_fraction * 0.4

    def sample(self, event_type: EventType, rng: np.random.Generator) -> DvfsModel:
        """Draw one event's workload."""
        heavy_p, log_heavy, log_median, ndep_sigma, log_tmem, tmem_sigma = self._table[event_type]
        heavy = rng.random() < heavy_p
        ndep = float(rng.lognormal(log_heavy if heavy else log_median, ndep_sigma))
        tmem = float(rng.lognormal(log_tmem, tmem_sigma))
        return DvfsModel(tmem_ms=tmem, ndep_mcycles=ndep)

    def typical(self, event_type: EventType) -> DvfsModel:
        """The median (non-heavy) workload for an event type, unscaled by noise.

        Used by schedulers that must provision for a *predicted* event before
        its real workload has been calibrated.
        """
        params = self.params[interaction_of(event_type)]
        scale = self.profile.workload_scale
        return DvfsModel(
            tmem_ms=params.tmem_median_ms * scale,
            ndep_mcycles=params.ndep_median_mcycles * scale,
        )
