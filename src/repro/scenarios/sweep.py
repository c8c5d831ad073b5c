"""Platform-parameter sweeps: the platform itself as a scenario axis.

Every scenario before this module named one of two fixed SoCs.  A
:class:`PlatformSweep` instead cross-products platform *parameters* —
base platform, big/little core counts, the little cluster's relative IPC
(``perf_scale``), and a thermal throttling curve
(:mod:`repro.hardware.thermal`) — into :class:`PlatformVariant` cells.
Each variant derives its :class:`~repro.hardware.acmp.AcmpSystem` via
:func:`~repro.hardware.platforms.derive_platform` (the scenario spec then
applies the regime's cap and the thermal curve), and labels itself
(``exynos5410+b2+ps0.3+th.passive_phone``) so swept matrix cells stay
unique and self-describing — the label is what keys worker-local simulator
caches in :meth:`~repro.runtime.parallel.ParallelEvaluator.evaluate_matrix`,
so two variants that differ in any override never share a simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from repro.hardware.acmp import AcmpSystem
from repro.hardware.platforms import (
    derive_platform,
    get_platform,
    list_platforms,
    platform_override_tokens,
)
from repro.hardware.thermal import ThermalModel, get_thermal_model


@dataclass(frozen=True)
class PlatformVariant:
    """One point of a platform sweep: a base platform plus overrides.

    ``None`` fields keep the base platform's value.  ``perf_scale``
    overrides the *little* cluster's relative IPC (the big cluster defines
    1.0); ``thermal`` names a curve from
    :data:`repro.hardware.thermal.THERMAL_MODELS`.
    """

    platform: str = "exynos5410"
    big_cores: int | None = None
    little_cores: int | None = None
    perf_scale: float | None = None
    thermal: str | None = None

    def __post_init__(self) -> None:
        if self.platform not in list_platforms():
            raise ValueError(
                f"unknown platform {self.platform!r}; available: {', '.join(list_platforms())}"
            )
        for label, cores in (("big_cores", self.big_cores), ("little_cores", self.little_cores)):
            if cores is not None and cores < 1:
                raise ValueError(f"{label} must be >= 1")
        if self.perf_scale is not None and not 0.0 < self.perf_scale <= 1.0:
            raise ValueError("perf_scale must be in (0, 1]")
        if self.thermal is not None:
            get_thermal_model(self.thermal)  # raises KeyError with the available names

    @property
    def label(self) -> str:
        """Unique cell label: platform plus one ``+token`` per override.

        Tokens come from :func:`~repro.hardware.platforms.platform_override_tokens`
        (the same grammar derived system names use; ``ps`` is ``repr``-based
        and therefore injective on floats), plus a ``th.<curve>`` token for
        the thermal axis — so distinct variants can never collide on
        cell name.
        """
        tokens = [self.platform] + platform_override_tokens(
            big_cores=self.big_cores,
            little_cores=self.little_cores,
            little_perf_scale=self.perf_scale,
        )
        if self.thermal is not None:
            tokens.append(f"th.{self.thermal}")
        return "+".join(tokens)

    def thermal_model(self) -> ThermalModel | None:
        return get_thermal_model(self.thermal) if self.thermal is not None else None

    def derived_system(self) -> AcmpSystem:
        """The base platform with the parameter overrides applied (no thermal).

        :meth:`ScenarioSpec.system <repro.scenarios.spec.ScenarioSpec.system>`,
        the one composition path, applies the regime's cap and the thermal
        throttle on top of it.
        """
        return derive_platform(
            get_platform(self.platform),
            big_cores=self.big_cores,
            little_cores=self.little_cores,
            little_perf_scale=self.perf_scale,
        )


@dataclass(frozen=True)
class PlatformSweep:
    """Cross-product of platform parameters, one :class:`PlatformVariant` per cell.

    Any axis may hold ``None`` entries ("keep the platform's value"), so a
    sweep can include the unmodified baseline alongside its variants.
    Expansion order is deterministic: platforms outermost, then big cores,
    little cores, perf scales, thermal models.
    """

    platforms: tuple[str, ...] = ("exynos5410",)
    big_core_counts: tuple[int | None, ...] = (None,)
    little_core_counts: tuple[int | None, ...] = (None,)
    perf_scales: tuple[float | None, ...] = (None,)
    thermal_models: tuple[str | None, ...] = (None,)
    _variants: tuple[PlatformVariant, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for axis_name, axis in (
            ("platforms", self.platforms),
            ("big_core_counts", self.big_core_counts),
            ("little_core_counts", self.little_core_counts),
            ("perf_scales", self.perf_scales),
            ("thermal_models", self.thermal_models),
        ):
            if not axis:
                raise ValueError(f"platform sweep has an empty {axis_name} axis")
            if len(set(axis)) != len(axis):
                raise ValueError(f"platform sweep {axis_name} axis has duplicate entries")
        # Expand once, eagerly: a bad axis value fails here (before any
        # matrix is built), and every later variants() access —
        # matrix validation, n_cells, expand, CLI summaries — reuses the
        # cached tuple instead of re-deriving the cross-product.
        object.__setattr__(self, "_variants", tuple(self._expand_variants()))

    def variants(self) -> list[PlatformVariant]:
        """One validated :class:`PlatformVariant` per cell, deterministic order.

        Overrides equal to a platform's own value are normalised to ``None``
        per platform, and cells that collapse to the same variant are
        deduplicated (first occurrence wins).  So
        ``big_core_counts=(None, 4)`` on the 4-big-core Exynos yields one
        baseline cell, not two identically-derived cells under different
        labels — while the same axis still produces a real variant on a
        platform whose big cluster is not 4 cores.
        """
        return list(self._variants)

    def _expand_variants(self) -> list[PlatformVariant]:
        seen: set[PlatformVariant] = set()
        variants: list[PlatformVariant] = []
        for platform, big, little, perf, thermal in product(
            self.platforms,
            self.big_core_counts,
            self.little_core_counts,
            self.perf_scales,
            self.thermal_models,
        ):
            base = get_platform(platform)
            if big == base.big_cluster.core_count:
                big = None
            if little == base.little_cluster.core_count:
                little = None
            if perf == base.little_cluster.perf_scale:
                perf = None
            variant = PlatformVariant(
                platform=platform,
                big_cores=big,
                little_cores=little,
                perf_scale=perf,
                thermal=thermal,
            )
            if variant in seen:
                continue
            seen.add(variant)
            variants.append(variant)
        return variants


__all__ = ["PlatformSweep", "PlatformVariant"]
