"""Thermal throttling curves: frequency caps as a function of temperature.

PR 3's ``low_battery`` regime modelled hardware constraint as a *flat*
frequency cap.  Real devices throttle along a curve: the hotter the
package, the lower the governor's ceiling, and temperature itself follows
the workload with first-order (exponential) heat-up and cool-down
dynamics.  :class:`ThermalModel` captures both:

* a **piecewise-constant throttling curve** — ascending temperature
  thresholds mapped to non-increasing frequency caps (the shape of every
  vendor's thermal table),
* a **first-order thermal state** — temperature relaxes exponentially
  toward ``ambient + c_per_watt * power`` with time constant
  ``time_constant_s``, so short bursty sessions never reach the
  steady-state temperature a marathon session settles at
  (:meth:`temperature_after`, :class:`ThermalState`).

For the scenario matrix a thermal model is applied *per scenario*:
:meth:`constrain` finds the platform's highest *sustainable* operating
point — the fastest curve cap whose capped system, running flat out for
the regime's session length, stays cool enough that the curve still
permits it — and derives the capped
:class:`~repro.hardware.acmp.AcmpSystem` through
:meth:`~repro.hardware.acmp.AcmpSystem.with_frequency_cap`.  The search is
a pure function of (system, curve, power model, dwell), so swept matrices
stay bit-identical for any worker count.

The degenerate case is exact by construction: a **constant curve**
(a single ``(threshold, cap)`` point) ignores temperature entirely, so
``constrain`` returns precisely ``system.with_frequency_cap(cap)`` — the
flat-cap behaviour the ``low_battery`` regime already pinned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.hardware.acmp import AcmpSystem
from repro.hardware.power import PowerModel

#: Cap meaning "no throttle": far above any realistic DVFS ladder, so
#: ``with_frequency_cap`` keeps every operating point and returns ``self``.
NO_THROTTLE_MHZ: int = 1_000_000


@dataclass(frozen=True)
class ThermalModel:
    """A piecewise throttling curve plus first-order thermal dynamics.

    ``curve`` is a tuple of ``(threshold_c, cap_mhz)`` points with strictly
    ascending thresholds and non-increasing caps.  The curve is
    piecewise-constant and total: below the first threshold the first cap
    applies, at or above a threshold that point's cap applies.  A
    single-point curve is therefore a flat cap at every temperature.
    """

    name: str
    curve: tuple[tuple[float, int], ...]
    #: Ambient (and initial) package temperature.
    ambient_c: float = 25.0
    #: First-order time constant of package heat-up and cool-down.
    time_constant_s: float = 45.0
    #: Steady-state temperature rise above ambient per sustained watt.
    c_per_watt: float = 12.0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a thermal model needs a name")
        if not self.curve:
            raise ValueError("a thermal curve needs at least one point")
        thresholds = [point[0] for point in self.curve]
        caps = [point[1] for point in self.curve]
        if thresholds != sorted(set(thresholds)):
            raise ValueError("curve temperatures must be strictly ascending")
        if any(cap <= 0 for cap in caps):
            raise ValueError("curve caps must be positive")
        if any(later > earlier for earlier, later in zip(caps, caps[1:])):
            raise ValueError("curve caps must be non-increasing with temperature")
        if self.time_constant_s <= 0:
            raise ValueError("time_constant_s must be positive")
        if self.c_per_watt < 0:
            raise ValueError("c_per_watt must be non-negative")

    # -- the throttling curve ----------------------------------------------------

    def cap_mhz(self, temperature_c: float) -> int:
        """The frequency ceiling at ``temperature_c`` (non-increasing in T)."""
        cap = self.curve[0][1]
        for threshold, point_cap in self.curve:
            if temperature_c >= threshold:
                cap = point_cap
            else:
                break
        return cap

    # -- first-order thermal dynamics --------------------------------------------

    def steady_state_c(self, power_w: float) -> float:
        """Temperature the package settles at under sustained ``power_w``."""
        return self.ambient_c + self.c_per_watt * power_w

    def temperature_after(
        self, power_w: float, dwell_s: float, start_c: float | None = None
    ) -> float:
        """Closed-form temperature after ``dwell_s`` seconds at ``power_w``.

        Exponential relaxation toward :meth:`steady_state_c` from
        ``start_c`` (ambient when omitted); the same expression models
        heat-up and cool-down, whichever side of the target the start lies.
        """
        if dwell_s < 0:
            raise ValueError("dwell_s must be non-negative")
        start = self.ambient_c if start_c is None else start_c
        target = self.steady_state_c(power_w)
        return target + (start - target) * math.exp(-dwell_s / self.time_constant_s)

    # -- platform derivation -----------------------------------------------------

    def constrain(
        self,
        system: AcmpSystem,
        *,
        power_model: PowerModel | None = None,
        dwell_s: float | None = None,
    ) -> AcmpSystem:
        """The platform throttled to its highest *sustainable* operating point.

        A cap is sustainable when the capped system, running flat out at
        its top configuration for ``dwell_s`` seconds (steady state when
        ``None``), stays cool enough that the curve still permits that top
        configuration — i.e. the operating point is consistent with the
        temperature it produces.  Candidates are the curve's own caps,
        tried hottest-allowance first, so the result is the fastest speed
        the device can hold indefinitely (a one-shot "cap at the
        full-power temperature" would overshoot every equilibrium and pin
        the ladder at its minimum rung).  If even the deepest throttle
        cannot satisfy its own temperature — the ladder is already pinned
        at minimum rungs — that deepest cap is applied regardless.

        Deterministic and bounded by the curve's size.  With a constant
        curve the single candidate always wins (sustainable or fallback),
        so the result is exactly ``system.with_frequency_cap(cap)``.
        """
        model = power_model if power_model is not None else PowerModel()
        caps = sorted({cap for _, cap in self.curve}, reverse=True)
        for cap in caps:
            capped = system.with_frequency_cap(cap)
            top = capped.max_performance_config
            power = model.active_power_w(capped, top)
            temperature = (
                self.steady_state_c(power)
                if dwell_s is None
                else self.temperature_after(power, dwell_s)
            )
            if self.cap_mhz(temperature) >= top.frequency_mhz:
                return capped
        return system.with_frequency_cap(caps[-1])


@dataclass
class ThermalState:
    """Mutable temperature tracker for step-by-step thermal simulation.

    The scenario matrix only needs :meth:`ThermalModel.constrain`, but the
    dynamics are usable on their own: feed ``advance`` a power/duration
    profile and read the temperature and the instantaneous cap as they
    evolve (heat-up under load, cool-down when the power drops).
    """

    model: ThermalModel
    temperature_c: float = field(default=float("nan"))

    def __post_init__(self) -> None:
        if math.isnan(self.temperature_c):
            self.temperature_c = self.model.ambient_c

    def advance(self, power_w: float, dt_s: float) -> float:
        """Advance the state ``dt_s`` seconds at ``power_w``; returns the temperature."""
        self.temperature_c = self.model.temperature_after(
            power_w, dt_s, start_c=self.temperature_c
        )
        return self.temperature_c

    @property
    def cap_mhz(self) -> int:
        """The instantaneous frequency ceiling at the current temperature."""
        return self.model.cap_mhz(self.temperature_c)


def _builtin_models() -> dict[str, ThermalModel]:
    return {
        # Degenerate curve matching the low_battery regime's flat cap: the
        # differential tests pin that this reproduces with_frequency_cap
        # results exactly.
        "constant_1100": ThermalModel(
            name="constant_1100",
            curve=((0.0, 1_100),),
            description="flat 1.1 GHz cap at any temperature (degenerate curve)",
        ),
        # A passively cooled phone chassis: generous headroom, throttling
        # only under sustained near-peak power.
        "passive_phone": ThermalModel(
            name="passive_phone",
            curve=((0.0, NO_THROTTLE_MHZ), (55.0, 1_500), (70.0, 1_200), (85.0, 900)),
            time_constant_s=45.0,
            c_per_watt=12.0,
            description="passively cooled phone: throttles from 55C in three steps",
        ),
        # A cramped chassis (watch / fanless stick): heats faster, throttles
        # earlier and deeper — the adversarial end of the sweep axis.
        "cramped_chassis": ThermalModel(
            name="cramped_chassis",
            curve=(
                (0.0, NO_THROTTLE_MHZ),
                (45.0, 1_400),
                (55.0, 1_100),
                (65.0, 800),
                (75.0, 600),
            ),
            time_constant_s=30.0,
            c_per_watt=16.0,
            description="cramped fanless chassis: early, deep throttle steps",
        ),
    }


#: Registry of the built-in thermal models, keyed by name.
THERMAL_MODELS: dict[str, ThermalModel] = _builtin_models()


def list_thermal_models() -> list[str]:
    """Names accepted by :func:`get_thermal_model`."""
    return sorted(THERMAL_MODELS)


def get_thermal_model(name: str) -> ThermalModel:
    """Look up a built-in thermal model; raises ``KeyError`` for unknown names."""
    try:
        return THERMAL_MODELS[name]
    except KeyError:
        raise KeyError(
            f"unknown thermal model {name!r}; available: {', '.join(list_thermal_models())}"
        ) from None
