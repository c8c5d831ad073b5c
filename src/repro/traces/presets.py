"""Named session regimes: reusable workload shapes for the scenario matrix.

Every experiment before the scenario subsystem replayed the same narrow
session shape — the default ~110 s, ~25-event browsing session.  A
:class:`SessionRegime` bundles everything that defines a *kind* of session:

* a :class:`~repro.traces.generator.SessionConfig` (length, think times,
  burstiness),
* optional :class:`~repro.traces.workload.WorkloadParams` overrides (how
  heavy the per-event compute is under that regime), and
* an optional platform frequency cap
  (:meth:`~repro.hardware.acmp.AcmpSystem.with_frequency_cap`) for regimes
  that constrain the hardware rather than the user.

The built-in regimes cover the breadth the evaluation was missing:

``default``
    The paper's session statistics (~110 s, ~25 events).
``flash_crowd``
    Bursty, short, tap-heavy sessions — a breaking-news or flash-sale
    crowd hammering a page.  Short think times squeeze event budgets, so
    event interference is maximal.
``background_idle``
    A long-lived background tab the user glances at occasionally: very few
    events spread over minutes, so idle energy dominates and an aggressive
    scheduler has almost nothing to save.
``low_battery``
    The user's battery saver kicked in: session behaviour is ordinary but
    the OS caps every cluster's frequency, shrinking the configuration
    space every scheduler plans over.
``marathon``
    A long mixed browsing day: maximum-length sessions with heavier pages,
    the shape that stresses streaming aggregation and scheduler reuse.
``network_limited``
    A congested or metered link: page loads wait on the network, so the
    frequency-invariant memory/network time (``Tmem``) dominates and racing
    the CPU buys little — the regime where reactive boosting wastes most.
``fg_bg_switching``
    The user bounces between the browser and other apps: short foreground
    bursts separated by long background lulls, with frequent re-entry
    navigations.  High think-time variance makes arrival times hard to
    anticipate, stressing the predictor's arrival conservatism.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from repro.hardware.acmp import AcmpSystem
from repro.traces.generator import SessionConfig
from repro.traces.workload import INTERACTION_WORKLOADS, WorkloadParams
from repro.webapp.events import Interaction


def scaled_workloads(
    scale: float,
    base: Mapping[Interaction, WorkloadParams] | None = None,
    *,
    tmem_scale: float | None = None,
) -> dict[Interaction, WorkloadParams]:
    """Workload parameters with every median scaled by ``scale``.

    Sigmas are left untouched: the regime changes how heavy events are, not
    how variable they are.  ``tmem_scale`` overrides the factor applied to
    the frequency-invariant memory/network time, letting regimes shift the
    compute-vs-network balance (``network_limited`` inflates ``Tmem`` alone,
    so higher frequencies stop buying latency).
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    tmem = scale if tmem_scale is None else tmem_scale
    if tmem <= 0:
        raise ValueError("tmem_scale must be positive")
    source = base if base is not None else INTERACTION_WORKLOADS
    return {
        interaction: replace(
            params,
            ndep_median_mcycles=params.ndep_median_mcycles * scale,
            tmem_median_ms=params.tmem_median_ms * tmem,
            heavy_ndep_mcycles=params.heavy_ndep_mcycles * scale,
        )
        for interaction, params in source.items()
    }


@dataclass(frozen=True)
class SessionRegime:
    """One named session shape usable as a scenario axis."""

    name: str
    session: SessionConfig
    #: Per-interaction workload overrides; ``None`` keeps the defaults.
    workload_params: Mapping[Interaction, WorkloadParams] | None = None
    #: Cap applied to every cluster of the scenario's platform; ``None``
    #: leaves the platform unconstrained.
    frequency_cap_mhz: int | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a regime needs a name")
        if self.frequency_cap_mhz is not None and self.frequency_cap_mhz <= 0:
            raise ValueError("frequency_cap_mhz must be positive")

    def constrain(self, system: AcmpSystem) -> AcmpSystem:
        """Apply the regime's hardware constraint (if any) to ``system``."""
        if self.frequency_cap_mhz is None:
            return system
        return system.with_frequency_cap(self.frequency_cap_mhz)


def _builtin_regimes() -> dict[str, SessionRegime]:
    return {
        "default": SessionRegime(
            name="default",
            session=SessionConfig(),
            description="the paper's session statistics (~110 s, ~25 events)",
        ),
        "flash_crowd": SessionRegime(
            name="flash_crowd",
            session=SessionConfig(
                target_duration_ms=45_000.0,
                max_events=70,
                min_events=15,
                think_after_load_ms=900.0,
                think_tap_after_move_ms=250.0,
                think_tap_after_tap_ms=200.0,
                think_tap_ms=1_100.0,
                move_burst_gap_ms=120.0,
                move_start_gap_ms=1_500.0,
                think_sigma=0.45,
                navigation_probability=0.25,
            ),
            workload_params=scaled_workloads(1.15),
            description="bursty tap-heavy sessions with squeezed event budgets",
        ),
        "background_idle": SessionRegime(
            name="background_idle",
            session=SessionConfig(
                target_duration_ms=300_000.0,
                max_events=18,
                min_events=4,
                think_after_load_ms=20_000.0,
                think_tap_after_move_ms=4_000.0,
                think_tap_after_tap_ms=3_500.0,
                think_tap_ms=60_000.0,
                move_burst_gap_ms=600.0,
                move_start_gap_ms=45_000.0,
                think_sigma=0.7,
                navigation_probability=0.08,
            ),
            workload_params=scaled_workloads(0.8),
            description="sparse background-tab sessions where idle energy dominates",
        ),
        "low_battery": SessionRegime(
            name="low_battery",
            session=SessionConfig(
                target_duration_ms=90_000.0,
                think_tap_ms=4_500.0,
            ),
            frequency_cap_mhz=1_100,
            description="battery saver active: every cluster capped at 1.1 GHz",
        ),
        "marathon": SessionRegime(
            name="marathon",
            session=SessionConfig(
                target_duration_ms=600_000.0,
                max_events=70,
                min_events=40,
                think_after_load_ms=4_000.0,
                think_tap_ms=6_000.0,
                move_start_gap_ms=9_000.0,
            ),
            workload_params=scaled_workloads(1.1),
            description="long mixed browsing days at maximum session length",
        ),
        "network_limited": SessionRegime(
            name="network_limited",
            session=SessionConfig(
                target_duration_ms=140_000.0,
                # Loads stall on the network, so users wait longer before
                # the next input and re-navigate more (retries, redirects).
                think_after_load_ms=5_500.0,
                navigation_probability=0.22,
            ),
            # Tmem (frequency-invariant network/memory stalls) triples while
            # CPU-dependent work stays nominal: the latency floor moves to
            # the link, and boosting frequency mostly burns power.
            workload_params=scaled_workloads(1.0, tmem_scale=3.0),
            description="congested link: network time dominates, boosting buys little",
        ),
        "fg_bg_switching": SessionRegime(
            name="fg_bg_switching",
            session=SessionConfig(
                target_duration_ms=240_000.0,
                max_events=50,
                min_events=12,
                # Foreground bursts: tap chains as tight as flash_crowd...
                think_tap_after_move_ms=350.0,
                think_tap_after_tap_ms=300.0,
                # ...separated by long background lulls (the user is in
                # another app) before the next burst or re-entry load.
                think_tap_ms=25_000.0,
                think_after_load_ms=1_500.0,
                move_start_gap_ms=20_000.0,
                # Bursty-vs-idle bimodality: high sigma stretches the gap
                # distribution's tails in both directions.
                think_sigma=0.95,
                navigation_probability=0.3,
            ),
            description="foreground bursts between long background lulls",
        ),
    }


#: Registry of the built-in regimes, keyed by name.
SESSION_REGIMES: dict[str, SessionRegime] = _builtin_regimes()


def get_regime(name: str) -> SessionRegime:
    """Look up a built-in regime; raises ``KeyError`` for unknown names."""
    try:
        return SESSION_REGIMES[name]
    except KeyError:
        raise KeyError(
            f"unknown session regime {name!r}; available: {', '.join(sorted(SESSION_REGIMES))}"
        ) from None
