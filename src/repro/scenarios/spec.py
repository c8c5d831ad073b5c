"""Declarative scenario specifications and the matrix expander.

A :class:`ScenarioSpec` names everything one evaluation cell needs — a
platform (optionally with parameter overrides: core counts, little-cluster
``perf_scale``, a thermal throttling curve), a session regime
(:mod:`repro.traces.presets`), an app mix, the schemes to replay, and an
optional PES tuning — without running anything.  A :class:`ScenarioMatrix`
is the cross-product of those axes (the platform axis may be a
:class:`~repro.scenarios.sweep.PlatformSweep`); expanding it yields one
spec per cell, ready to fan through
:meth:`repro.runtime.parallel.ParallelEvaluator.evaluate_matrix`.

Everything here is data: validation happens at construction time so a bad
matrix fails before any trace is generated, and specs round-trip through
plain dicts for the JSON artefacts under ``results/``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from itertools import product
from typing import Sequence

from repro.core.pes import PesConfig
from repro.faults import FaultSpec
from repro.hardware.acmp import AcmpSystem
from repro.runtime.simulator import check_schemes
from repro.scenarios.sweep import PlatformSweep, PlatformVariant
from repro.traces.presets import SessionRegime, get_regime
from repro.webapp.apps import SEEN_APPS, UNSEEN_APPS

#: Named application mixes usable as a scenario axis.  The small mixes keep
#: matrix cells cheap; ``seen``/``unseen``/``all`` reproduce the paper's
#: grouping for full-breadth runs.
APP_MIXES: dict[str, tuple[str, ...]] = {
    "core": ("cnn", "google", "ebay"),
    "news": ("cnn", "bbc", "nytimes"),
    "shopping": ("amazon", "ebay", "taobao"),
    "mixed": ("cnn", "google", "sina", "stackoverflow"),
    "seen": tuple(SEEN_APPS),
    "unseen": tuple(UNSEEN_APPS),
    "all": tuple(SEEN_APPS) + tuple(UNSEEN_APPS),
}


def resolve_app_mix(apps: str | tuple[str, ...]) -> tuple[str, ...]:
    """Turn a mix name or an explicit app tuple into the app tuple.

    Explicit tuples are validated against the benchmark app names so a
    typo fails at spec construction, not deep inside a run after the
    predictor has already been trained.
    """
    if isinstance(apps, str):
        try:
            return APP_MIXES[apps]
        except KeyError:
            raise KeyError(
                f"unknown app mix {apps!r}; available: {', '.join(sorted(APP_MIXES))}"
            ) from None
    if not apps:
        raise ValueError("a scenario needs at least one application")
    unknown = [app for app in apps if app not in APP_MIXES["all"]]
    if unknown:
        raise ValueError(f"unknown application {unknown[0]!r} in app mix")
    return tuple(apps)


@dataclass(frozen=True)
class ScenarioSpec:
    """One evaluation cell: platform x regime x app mix x schemes (+ PES).

    The platform axis is parameterisable: ``big_cores`` / ``little_cores``
    / ``perf_scale`` derive a variant of the named platform
    (:func:`repro.hardware.platforms.derive_platform`) and ``thermal``
    names a throttling curve (:mod:`repro.hardware.thermal`) applied on
    top of the regime's constraint.  All four default to ``None`` — the
    unmodified named platform — so pre-sweep specs and artefacts are
    unchanged.
    """

    name: str
    platform: str = "exynos5410"
    regime: str = "default"
    #: A mix name from :data:`APP_MIXES` or an explicit tuple of app names.
    apps: str | tuple[str, ...] = "core"
    schemes: tuple[str, ...] = ("Interactive", "EBS", "PES")
    traces_per_app: int = 1
    seed: int = 500_000
    pes: PesConfig | None = None
    #: Platform-parameter overrides (see :class:`~repro.scenarios.sweep.PlatformVariant`).
    big_cores: int | None = None
    little_cores: int | None = None
    perf_scale: float | None = None
    thermal: str | None = None
    #: How the ``thermal`` curve is applied.  ``"static"`` collapses it to
    #: one pre-throttled platform per scenario (the regime's session length
    #: as heat-up dwell); ``"dynamic"`` threads a live thermal state through
    #: the engines instead, throttling per event as the package heats and
    #: cools.  Without a ``thermal`` curve both modes are identical.
    thermal_mode: str = "static"
    #: Seeded fault condition injected into every session of the cell
    #: (:mod:`repro.faults`).  ``None`` — and any zero-rate spec — is
    #: bit-identical to the fault-free path.
    faults: FaultSpec | None = None
    #: Ambient temperature override (°C) for the ``thermal`` curve — the
    #: fleet layer's per-device environment axis (a phone in a pocket vs on
    #: a desk).  ``None`` keeps the curve's own ambient; setting it without
    #: a ``thermal`` curve is rejected because there is nothing to heat.
    ambient_c: float | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a scenario needs a name")
        if self.thermal_mode not in ("static", "dynamic"):
            raise ValueError(
                f"scenario {self.name!r} thermal_mode must be 'static' or 'dynamic', "
                f"got {self.thermal_mode!r}"
            )
        # Building the variant validates platform name, core counts,
        # perf_scale range, and the thermal-model name in one place.
        self.platform_variant()
        get_regime(self.regime)  # raises KeyError with the available names
        resolve_app_mix(self.apps)
        check_schemes(self.schemes, f"scenario {self.name!r}")
        if self.traces_per_app < 1:
            raise ValueError("traces_per_app must be >= 1")
        if self.ambient_c is not None and self.thermal is None:
            raise ValueError(
                f"scenario {self.name!r} sets ambient_c without a thermal curve"
            )

    # -- resolution -------------------------------------------------------------

    def resolved_apps(self) -> tuple[str, ...]:
        return resolve_app_mix(self.apps)

    def resolved_regime(self) -> SessionRegime:
        return get_regime(self.regime)

    def platform_variant(self) -> PlatformVariant:
        """The spec's platform overrides as a sweep variant."""
        return PlatformVariant(
            platform=self.platform,
            big_cores=self.big_cores,
            little_cores=self.little_cores,
            perf_scale=self.perf_scale,
            thermal=self.thermal,
        )

    def system(self) -> AcmpSystem:
        """The derived platform with regime and thermal constraints applied.

        Order: parameter overrides first, then the regime's frequency cap,
        then — in ``static`` mode only — the thermal throttle (hottest
        constraint wins; successive caps compose as their minimum and are
        idempotent), with the regime's target session length as the heat-up
        dwell.  In ``dynamic`` mode the thermal curve is deliberately *not*
        baked into the platform: the engines apply it live, per event
        (:func:`dynamic_thermal_model`), so the returned system is only
        regime-constrained.
        """
        variant = self.platform_variant()
        regime = self.resolved_regime()
        system = regime.constrain(variant.derived_system())
        model = self._thermal_model()
        if model is not None and self.thermal_mode == "static":
            system = model.constrain(
                system, dwell_s=regime.session.target_duration_ms / 1000.0
            )
        return system

    def _thermal_model(self):
        """The named curve with this spec's ambient override applied."""
        model = self.platform_variant().thermal_model()
        if model is not None and self.ambient_c is not None:
            model = replace(model, ambient_c=self.ambient_c)
        return model

    def dynamic_thermal_model(self):
        """The live thermal model for the engines, ``None`` unless dynamic.

        Returns the named :class:`~repro.hardware.thermal.ThermalModel` when
        ``thermal_mode == "dynamic"`` and a curve is set — the object
        :class:`~repro.runtime.simulator.SimulationSetup` (and through it
        every engine) receives.  Static mode returns ``None`` because the
        curve is already collapsed into :meth:`system`.
        """
        if self.thermal_mode != "dynamic":
            return None
        return self._thermal_model()

    @property
    def baseline(self) -> str:
        """The scheme every other scheme is normalised against (the first)."""
        return self.schemes[0]

    @property
    def n_sessions(self) -> int:
        return len(self.resolved_apps()) * self.traces_per_app

    # -- serialisation ----------------------------------------------------------

    def to_dict(self) -> dict:
        payload = {
            "name": self.name,
            "platform": self.platform,
            "regime": self.regime,
            "apps": self.apps if isinstance(self.apps, str) else list(self.apps),
            "resolved_apps": list(self.resolved_apps()),
            "schemes": list(self.schemes),
            "traces_per_app": self.traces_per_app,
            "seed": self.seed,
            "pes": asdict(self.pes) if self.pes is not None else None,
            "big_cores": self.big_cores,
            "little_cores": self.little_cores,
            "perf_scale": self.perf_scale,
            "thermal": self.thermal,
        }
        if self.thermal_mode != "static":
            # Emitted only when non-default so pre-thermal artefacts and the
            # committed golden fixture stay byte-identical; from_dict
            # defaults a missing key back to "static".
            payload["thermal_mode"] = self.thermal_mode
        if self.faults is not None:
            # Same conditional emission: fault-free artefacts (including the
            # golden fixture) keep their exact byte shape.
            payload["faults"] = self.faults.to_dict()
        if self.ambient_c is not None:
            # Conditional for the same reason: pre-fleet artefacts keep
            # their exact byte shape; from_dict defaults a missing key.
            payload["ambient_c"] = self.ambient_c
        payload["description"] = self.description
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioSpec":
        apps = payload["apps"]
        pes = payload.get("pes")
        faults = payload.get("faults")
        return cls(
            name=payload["name"],
            platform=payload.get("platform", "exynos5410"),
            regime=payload.get("regime", "default"),
            apps=apps if isinstance(apps, str) else tuple(apps),
            schemes=tuple(payload["schemes"]),
            traces_per_app=int(payload.get("traces_per_app", 1)),
            seed=int(payload.get("seed", 500_000)),
            pes=PesConfig(**pes) if pes is not None else None,
            big_cores=payload.get("big_cores"),
            little_cores=payload.get("little_cores"),
            perf_scale=payload.get("perf_scale"),
            thermal=payload.get("thermal"),
            thermal_mode=payload.get("thermal_mode", "static"),
            faults=FaultSpec.from_dict(faults) if faults is not None else None,
            ambient_c=payload.get("ambient_c"),
            description=payload.get("description", ""),
        )


@dataclass(frozen=True)
class ScenarioMatrix:
    """Cross-product of scenario axes, expanded into one spec per cell.

    Cell names are ``platform/regime/mix`` (with a ``pes<i>`` suffix when
    several PES configs are swept), so a matrix run's artefacts stay
    self-describing.

    The platform axis comes in two strengths: ``platforms`` names fixed
    SoCs, while ``platform_sweep`` cross-products platform *parameters*
    (core counts, little-cluster ``perf_scale``, thermal curves) into
    derived variants.  When a sweep is given it replaces the ``platforms``
    axis and cell names lead with the variant label
    (``exynos5410+b2+th.passive_phone/default/core``) — every variant gets
    its own cell key and therefore its own worker-local simulator in
    :meth:`~repro.runtime.parallel.ParallelEvaluator.evaluate_matrix`.
    """

    name: str
    #: ``None`` (the default) resolves to the primary platform unless a
    #: ``platform_sweep`` supplies the axis instead — a ``None`` sentinel
    #: rather than a default tuple, so *explicitly* passing ``platforms``
    #: together with a sweep is always detected as a conflict.
    platforms: tuple[str, ...] | None = None
    regimes: tuple[str, ...] = ("default",)
    app_mixes: tuple[str, ...] = ("core",)
    schemes: tuple[str, ...] = ("Interactive", "EBS", "PES")
    pes_configs: tuple[PesConfig | None, ...] = (None,)
    #: Fault-condition axis: each entry is cross-producted like any other
    #: axis (``None`` = the fault-free cell).  Cell names gain a
    #: ``/<fault name>`` (or ``/nofault``) suffix when more than one entry
    #: is swept.
    fault_specs: tuple[FaultSpec | None, ...] = (None,)
    platform_sweep: PlatformSweep | None = None
    traces_per_app: int = 1
    seed: int = 500_000
    #: Applied to every expanded spec; see :attr:`ScenarioSpec.thermal_mode`.
    thermal_mode: str = "static"
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a matrix needs a name")
        if self.thermal_mode not in ("static", "dynamic"):
            raise ValueError(
                f"matrix {self.name!r} thermal_mode must be 'static' or 'dynamic', "
                f"got {self.thermal_mode!r}"
            )
        for axis_name, axis in (
            ("regimes", self.regimes),
            ("app_mixes", self.app_mixes),
            ("schemes", self.schemes),
            ("pes_configs", self.pes_configs),
            ("fault_specs", self.fault_specs),
        ):
            if not axis:
                raise ValueError(f"matrix {self.name!r} has an empty {axis_name} axis")
            # A duplicated axis entry expands to colliding cell names (or a
            # twice-replayed scheme), corrupting aggregates downstream.
            if any(axis[i] in axis[:i] for i in range(1, len(axis))):
                raise ValueError(f"matrix {self.name!r} {axis_name} axis has duplicate entries")
        fault_names = [self._fault_label(fault) for fault in self.fault_specs]
        if len(set(fault_names)) != len(fault_names):
            # Fault cell names come from the spec names, so two distinct
            # specs sharing a name would still collide in cell keys.
            raise ValueError(f"matrix {self.name!r} fault_specs axis has duplicate names")
        if self.platforms is not None:
            if not self.platforms:
                raise ValueError(f"matrix {self.name!r} has an empty platforms axis")
            if len(set(self.platforms)) != len(self.platforms):
                raise ValueError(f"matrix {self.name!r} platforms axis has duplicate entries")
        if self.platforms is not None and self.platform_sweep is not None:
            raise ValueError(
                f"matrix {self.name!r} sets both platforms and platform_sweep; "
                "put the swept platforms inside the sweep"
            )

    def platform_variants(self) -> list[PlatformVariant]:
        """The platform axis as variants (plain platforms when not sweeping)."""
        if self.platform_sweep is not None:
            return self.platform_sweep.variants()
        platforms = self.platforms if self.platforms is not None else ("exynos5410",)
        return [PlatformVariant(platform=platform) for platform in platforms]

    @staticmethod
    def _fault_label(fault: FaultSpec | None) -> str:
        return fault.name if fault is not None else "nofault"

    @property
    def n_cells(self) -> int:
        return (
            len(self.platform_variants())
            * len(self.regimes)
            * len(self.app_mixes)
            * len(self.pes_configs)
            * len(self.fault_specs)
        )

    @classmethod
    def cross_faults(
        cls, specs: Sequence[ScenarioSpec], fault_specs: Sequence[FaultSpec | None]
    ) -> list[ScenarioSpec]:
        """Each spec once per fault-axis entry, the fault varying fastest.

        Cell names gain a ``/<fault name>`` (or ``/nofault``) suffix only
        when the axis has more than one entry.  :meth:`expand` crosses its
        own ``fault_specs`` here, and so does ``scenarios run --scenario
        ... --faults`` for named scenarios.
        """
        suffixed = len(fault_specs) > 1
        return [
            replace(
                spec,
                faults=fault,
                name=f"{spec.name}/{cls._fault_label(fault)}" if suffixed else spec.name,
            )
            for spec in specs
            for fault in fault_specs
        ]

    def expand(self) -> list[ScenarioSpec]:
        """One validated :class:`ScenarioSpec` per cell, deterministic order."""
        specs: list[ScenarioSpec] = []
        for variant, regime, mix, (pes_index, pes) in product(
            self.platform_variants(),
            self.regimes,
            self.app_mixes,
            enumerate(self.pes_configs),
        ):
            cell = f"{variant.label}/{regime}/{mix}"
            if len(self.pes_configs) > 1:
                cell += f"/pes{pes_index}"
            specs.append(
                ScenarioSpec(
                    name=cell,
                    platform=variant.platform,
                    regime=regime,
                    apps=mix,
                    schemes=self.schemes,
                    traces_per_app=self.traces_per_app,
                    seed=self.seed,
                    pes=pes,
                    big_cores=variant.big_cores,
                    little_cores=variant.little_cores,
                    perf_scale=variant.perf_scale,
                    thermal=variant.thermal,
                    thermal_mode=self.thermal_mode,
                    description=self.description,
                )
            )
        return self.cross_faults(specs, self.fault_specs)
