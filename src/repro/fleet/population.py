"""Device populations: weighted fleet axes sampled into scenario specs.

A :class:`FleetSpec` declares the population — its size, seed, and one
weighted distribution per axis — without sampling anything.  A
:class:`DevicePopulation` turns it into concrete :class:`Device` samples.

Determinism contract: device ``i`` is drawn from its *own*
``random.Random(stable_seed("fleet", name, seed, i))`` stream, with the
axes drawn in a fixed order.  No draw shares state with any other device,
so the population is identical regardless of how many devices are
materialised, in what order, or on how many workers — the property the
``--jobs N ≡ --jobs 1`` artefact byte-identity rests on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

from repro.faults import FaultSpec, get_fault_preset
from repro.hardware.thermal import get_thermal_model
from repro.runtime.simulator import check_schemes
from repro.scenarios.spec import ScenarioSpec, resolve_app_mix
from repro.scenarios.sweep import PlatformVariant
from repro.traces.presets import get_regime
from repro.utils import stable_seed

#: Device attributes a fleet may slice its win/loss tables by.
SLICE_AXES = ("platform", "regime", "mix", "thermal", "ambient", "fault")


def _validate_axis(name: str, axis: Sequence[tuple[object, float]]) -> None:
    if not axis:
        raise ValueError(f"fleet axis {name!r} is empty")
    if any(weight <= 0 for _, weight in axis):
        raise ValueError(f"fleet axis {name!r} has a non-positive weight")
    values = [value for value, _ in axis]
    if any(values[i] in values[:i] for i in range(1, len(values))):
        raise ValueError(f"fleet axis {name!r} has duplicate values")


def _pick(rng: random.Random, axis: tuple[tuple[object, float], ...]) -> object:
    """One weighted draw; exactly one RNG consumption per call."""
    return rng.choices([value for value, _ in axis], [weight for _, weight in axis])[0]


@dataclass(frozen=True)
class FleetSpec:
    """A device population, declaratively: size, seed, weighted axes.

    Every axis is a tuple of ``(value, weight)`` pairs; weights are
    relative (they need not sum to 1).  The ``variants`` axis must not
    carry thermal curves — the ``thermals`` axis owns that dimension, so a
    curve is never double-applied.
    """

    name: str
    size: int = 200
    seed: int = 20_260_808
    #: Hardware axis: platform variants (cores / perf_scale overrides).
    variants: tuple[tuple[PlatformVariant, float], ...] = (
        (PlatformVariant(platform="exynos5410"), 3.0),
        (PlatformVariant(platform="exynos5410", big_cores=2), 1.0),
        (PlatformVariant(platform="tegra_parker"), 1.0),
    )
    #: Session-shape axis: regime names from :mod:`repro.traces.presets`.
    regimes: tuple[tuple[str, float], ...] = (
        ("default", 3.0),
        ("flash_crowd", 2.0),
        ("marathon", 1.0),
        ("low_battery", 1.0),
    )
    #: App-mix axis: mix names from :data:`repro.scenarios.spec.APP_MIXES`.
    app_mixes: tuple[tuple[str, float], ...] = (("core", 2.0), ("mixed", 1.0), ("news", 1.0))
    #: Thermal-curve axis (``None`` = an unthrottled chassis).
    thermals: tuple[tuple[str | None, float], ...] = (
        (None, 2.0),
        ("passive_phone", 2.0),
        ("cramped_chassis", 1.0),
    )
    #: Ambient-temperature axis (°C); only applied to devices that drew a
    #: thermal curve (an unthrottled chassis has nothing to heat).
    ambients: tuple[tuple[float, float], ...] = ((25.0, 3.0), (35.0, 1.0))
    #: Fault-condition axis: preset names (``None`` = fault-free).
    faults: tuple[tuple[str | None, float], ...] = ((None, 4.0), ("chaos", 1.0))
    #: Apps replayed per device, sampled without replacement from its mix.
    apps_per_device: int = 2
    traces_per_app: int = 1
    schemes: tuple[str, ...] = ("Interactive", "EBS", "PES")
    #: Thermal application mode for every device (see ScenarioSpec).
    thermal_mode: str = "dynamic"
    #: Device attributes the win/loss report slices by.
    slice_by: tuple[str, ...] = ("regime", "thermal")

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a fleet needs a name")
        if self.size < 1:
            raise ValueError("fleet size must be >= 1")
        if self.apps_per_device < 1:
            raise ValueError("apps_per_device must be >= 1")
        if self.traces_per_app < 1:
            raise ValueError("traces_per_app must be >= 1")
        check_schemes(self.schemes, f"fleet {self.name!r}")
        if self.thermal_mode not in ("static", "dynamic"):
            raise ValueError(
                f"fleet {self.name!r} thermal_mode must be 'static' or 'dynamic'"
            )
        _validate_axis("variants", self.variants)
        _validate_axis("regimes", self.regimes)
        _validate_axis("app_mixes", self.app_mixes)
        _validate_axis("thermals", self.thermals)
        _validate_axis("ambients", self.ambients)
        _validate_axis("faults", self.faults)
        for variant, _ in self.variants:
            if variant.thermal is not None:
                raise ValueError(
                    f"fleet {self.name!r} variant {variant.label!r} carries a "
                    "thermal curve; use the thermals axis instead"
                )
        for regime, _ in self.regimes:
            get_regime(regime)
        for mix, _ in self.app_mixes:
            resolve_app_mix(mix)
        for curve, _ in self.thermals:
            if curve is not None:
                get_thermal_model(curve)
        for fault, _ in self.faults:
            if fault is not None:
                get_fault_preset(fault)
        unknown_slices = [axis for axis in self.slice_by if axis not in SLICE_AXES]
        if unknown_slices:
            raise ValueError(
                f"unknown slice axis {unknown_slices[0]!r}; "
                f"available: {', '.join(SLICE_AXES)}"
            )
        if not self.slice_by:
            raise ValueError(f"fleet {self.name!r} has no slice_by axes")

    @property
    def baseline(self) -> str:
        return self.schemes[0]

    # -- serialisation ----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "size": self.size,
            "seed": self.seed,
            "variants": [
                [
                    {
                        "platform": variant.platform,
                        "big_cores": variant.big_cores,
                        "little_cores": variant.little_cores,
                        "perf_scale": variant.perf_scale,
                    },
                    weight,
                ]
                for variant, weight in self.variants
            ],
            "regimes": [list(pair) for pair in self.regimes],
            "app_mixes": [list(pair) for pair in self.app_mixes],
            "thermals": [list(pair) for pair in self.thermals],
            "ambients": [list(pair) for pair in self.ambients],
            "faults": [list(pair) for pair in self.faults],
            "apps_per_device": self.apps_per_device,
            "traces_per_app": self.traces_per_app,
            "schemes": list(self.schemes),
            "thermal_mode": self.thermal_mode,
            "slice_by": list(self.slice_by),
        }


@dataclass(frozen=True)
class Device:
    """One sampled member of the fleet."""

    index: int
    variant: PlatformVariant
    regime: str
    mix: str
    apps: tuple[str, ...]
    thermal: str | None
    ambient_c: float | None
    fault: str | None
    #: Per-device trace seed (independent stable_seed substream).
    seed: int

    @property
    def name(self) -> str:
        return f"d{self.index:04d}"

    def axis_value(self, axis: str) -> str:
        """The device's value on one :data:`SLICE_AXES` axis, as a label."""
        if axis == "platform":
            return self.variant.label
        if axis == "regime":
            return self.regime
        if axis == "mix":
            return self.mix
        if axis == "thermal":
            return self.thermal if self.thermal is not None else "nothermal"
        if axis == "ambient":
            return f"{self.ambient_c:g}C" if self.ambient_c is not None else "n/a"
        if axis == "fault":
            return self.fault if self.fault is not None else "nofault"
        raise KeyError(f"unknown slice axis {axis!r}; available: {', '.join(SLICE_AXES)}")

    def slice_key(self, slice_by: Sequence[str]) -> str:
        """The device's slice label, e.g. ``flash_crowd-on-cramped_chassis``."""
        return "-on-".join(self.axis_value(axis) for axis in slice_by)

    def scenario_name(self) -> str:
        parts = [self.name, self.variant.label, self.regime, self.mix]
        if self.thermal is not None:
            parts.append(self.thermal)
        if self.fault is not None:
            parts.append(self.fault)
        return "/".join(parts)

    def to_scenario_spec(self, fleet: FleetSpec) -> ScenarioSpec:
        """The device as one evaluation cell of the fleet matrix."""
        faults: FaultSpec | None = (
            get_fault_preset(self.fault) if self.fault is not None else None
        )
        return ScenarioSpec(
            name=self.scenario_name(),
            platform=self.variant.platform,
            regime=self.regime,
            apps=self.apps,
            schemes=fleet.schemes,
            traces_per_app=fleet.traces_per_app,
            seed=self.seed,
            big_cores=self.variant.big_cores,
            little_cores=self.variant.little_cores,
            perf_scale=self.variant.perf_scale,
            thermal=self.thermal,
            thermal_mode=fleet.thermal_mode,
            faults=faults,
            ambient_c=self.ambient_c if self.thermal is not None else None,
            description=f"device {self.index} of fleet {fleet.name!r}",
        )

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "name": self.name,
            "platform": self.variant.label,
            "regime": self.regime,
            "mix": self.mix,
            "apps": list(self.apps),
            "thermal": self.thermal,
            "ambient_c": self.ambient_c,
            "fault": self.fault,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class DevicePopulation:
    """Deterministic sampled view of a :class:`FleetSpec`."""

    spec: FleetSpec

    def device(self, index: int) -> Device:
        """Sample device ``index`` — independent of every other device.

        The per-device RNG is seeded from ``(fleet name, fleet seed,
        index)`` alone and the axes are drawn in a fixed order, so this is
        a pure function: any worker, any call order, any population size
        reproduces the same device.
        """
        if not 0 <= index < self.spec.size:
            raise IndexError(f"device index {index} outside fleet of {self.spec.size}")
        rng = random.Random(stable_seed("fleet", self.spec.name, self.spec.seed, index))
        variant = _pick(rng, self.spec.variants)
        regime = _pick(rng, self.spec.regimes)
        mix = _pick(rng, self.spec.app_mixes)
        mix_apps = resolve_app_mix(mix)
        apps = tuple(rng.sample(mix_apps, min(self.spec.apps_per_device, len(mix_apps))))
        thermal = _pick(rng, self.spec.thermals)
        ambient = _pick(rng, self.spec.ambients) if thermal is not None else None
        fault = _pick(rng, self.spec.faults)
        return Device(
            index=index,
            variant=variant,
            regime=regime,
            mix=mix,
            apps=apps,
            thermal=thermal,
            ambient_c=ambient,
            fault=fault,
            seed=stable_seed("fleet-traces", self.spec.name, self.spec.seed, index),
        )

    def devices(self) -> list[Device]:
        return [self.device(index) for index in range(self.spec.size)]

    def __iter__(self) -> Iterator[Device]:
        return iter(self.devices())

    def __len__(self) -> int:
        return self.spec.size

    def scenario_specs(self) -> list[ScenarioSpec]:
        """One :class:`ScenarioSpec` per device, in device order."""
        return [device.to_scenario_spec(self.spec) for device in self.devices()]


def _builtin_fleets() -> dict[str, FleetSpec]:
    default = FleetSpec(name="default")
    return {
        "default": default,
        # Bounded CI smoke: a dozen devices, two schemes, no PES training.
        "smoke": replace(
            default,
            name="smoke",
            size=12,
            schemes=("Interactive", "EBS"),
            apps_per_device=1,
            faults=((None, 1.0),),
        ),
    }


#: Named fleets usable from the CLI (``fleet sample|run --fleet``).
FLEET_PRESETS: dict[str, FleetSpec] = _builtin_fleets()


def list_fleet_presets() -> list[str]:
    return sorted(FLEET_PRESETS)


def get_fleet_preset(name: str) -> FleetSpec:
    try:
        return FLEET_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown fleet {name!r}; available: {', '.join(list_fleet_presets())}"
        ) from None
