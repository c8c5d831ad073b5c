"""Per-configuration power model.

The paper measures the power of every ``<core, frequency>`` combination
offline and stores the result in a lookup table loaded at application boot.
We reproduce that structure: :class:`PowerTable` is the lookup table, and
:class:`PowerModel` builds a calibrated table analytically (active power
roughly proportional to ``C · f · V²`` with voltage rising with frequency,
plus static leakage, with big cores several times hungrier than little
cores at equal frequency).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.hardware.acmp import AcmpConfig, AcmpSystem, Cluster, ClusterKind


@dataclass(frozen=True)
class ClusterPowerParams:
    """Analytical power parameters for one cluster.

    ``active_w`` at a configuration is
    ``static_w + dynamic_coeff_w * (f / f_max)^exponent`` where ``f_max`` is
    the cluster's maximum frequency; the exponent captures the supra-linear
    growth caused by voltage scaling.
    """

    static_w: float
    dynamic_coeff_w: float
    exponent: float = 2.4
    idle_w: float = 0.03

    def __post_init__(self) -> None:
        if self.static_w < 0 or self.dynamic_coeff_w < 0 or self.idle_w < 0:
            raise ValueError("power parameters must be non-negative")
        if self.exponent < 1.0:
            raise ValueError("exponent must be >= 1 (power grows with frequency)")


#: Default analytical parameters, calibrated so the Exynos 5410 big cluster
#: at 1.8 GHz draws roughly 3.5 W and the little cluster at 600 MHz roughly
#: 0.4 W, consistent with published big.LITTLE measurements.
DEFAULT_CLUSTER_PARAMS: Mapping[ClusterKind, ClusterPowerParams] = {
    ClusterKind.BIG: ClusterPowerParams(static_w=0.35, dynamic_coeff_w=3.1, exponent=2.4, idle_w=0.12),
    ClusterKind.LITTLE: ClusterPowerParams(static_w=0.05, dynamic_coeff_w=0.35, exponent=2.0, idle_w=0.02),
}


#: One priced operating point: ``(config, effective GHz, active power W)``.
PricedPoint = tuple[AcmpConfig, float, float]


@dataclass
class PowerTable:
    """Lookup table mapping configurations to active power in watts."""

    active_w: dict[AcmpConfig, float]
    idle_w: float = 0.14
    #: ``(system, priced_points(system), priced_configs(system),
    #: points_by_speed(system))`` per platform seen, kept by :meth:`priced_points`.
    _priced: list[
        tuple[
            AcmpSystem,
            tuple[PricedPoint, ...],
            dict[AcmpConfig, tuple[float, float]],
            tuple[PricedPoint, ...],
        ]
    ] = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for config, watts in self.active_w.items():
            if watts <= 0:
                raise ValueError(f"non-positive power for {config}")
        if self.idle_w < 0:
            raise ValueError("idle power must be non-negative")

    def power_w(self, config: AcmpConfig) -> float:
        try:
            return self.active_w[config]
        except KeyError:
            raise KeyError(f"no power entry for configuration {config}") from None

    def priced_points(self, system: AcmpSystem) -> tuple[PricedPoint, ...]:
        """:attr:`AcmpSystem.operating_points` with each point's active power appended.

        Built once per platform object and then shared, so the schedulers
        price a workload without hashing a configuration per option.  A
        session uses one platform and its few thermally capped copies
        (:func:`repro.schedulers.base.capped_system` keeps those stable), so
        the lookup is a short identity scan.  Raises ``KeyError`` for a
        configuration the table has no entry for.
        """
        return self._prices(system)[1]

    def priced_configs(self, system: AcmpSystem) -> dict[AcmpConfig, tuple[float, float]]:
        """:meth:`priced_points` by configuration: ``config -> (effective GHz, active W)``.

        Built with the points and shared the same way; the engines read a
        planned configuration's Eqn.-1 frequency and power from it.  Callers
        must not mutate it.
        """
        return self._prices(system)[2]

    def points_by_speed(self, system: AcmpSystem) -> tuple[PricedPoint, ...]:
        """:meth:`priced_points` in speed order: descending effective GHz.

        Ties keep :meth:`priced_points` order.  Eqn. 1's latency never falls
        along this order, so a workload whose latency strictly rises along it
        has its options in ascending-latency order without a sort
        (:func:`repro.schedulers.base.enumerate_options`).  Built and shared
        with the points.
        """
        return self._prices(system)[3]

    def _prices(self, system: AcmpSystem) -> tuple[
        AcmpSystem,
        tuple[PricedPoint, ...],
        dict[AcmpConfig, tuple[float, float]],
        tuple[PricedPoint, ...],
    ]:
        for entry in self._priced:
            if entry[0] is system:
                return entry
        points = tuple((config, effective_ghz, self.power_w(config)) for config, effective_ghz in system.operating_points)
        entry = (
            system,
            points,
            {config: (effective_ghz, power_w) for config, effective_ghz, power_w in points},
            tuple(sorted(points, key=lambda point: -point[1])),
        )
        self._priced.append(entry)
        return entry


@dataclass
class PowerModel:
    """Analytical generator of :class:`PowerTable` instances for a system."""

    cluster_params: Mapping[ClusterKind, ClusterPowerParams] = field(
        default_factory=lambda: dict(DEFAULT_CLUSTER_PARAMS)
    )

    def params_for(self, cluster: Cluster) -> ClusterPowerParams:
        try:
            return self.cluster_params[cluster.kind]
        except KeyError:
            raise KeyError(f"no power parameters for cluster kind {cluster.kind}") from None

    def active_power_w(self, system: AcmpSystem, config: AcmpConfig) -> float:
        cluster = system.cluster_of(config)
        params = self.params_for(cluster)
        # Scale against the silicon's design maximum, not the (possibly
        # policy-capped) ladder top: a frequency-capped system draws exactly
        # the same power at a kept operating point as the unconstrained one.
        # Static leakage scales with the cluster's powered silicon area
        # (``power_scale``, varied by core-count sweeps); dynamic power is
        # the one core actually executing the event and does not.
        ratio = config.frequency_mhz / cluster.design_max_frequency_mhz
        return params.static_w * cluster.power_scale + params.dynamic_coeff_w * ratio**params.exponent

    def idle_power_w(self, system: AcmpSystem) -> float:
        return sum(self.params_for(c).idle_w * c.power_scale for c in system.clusters)

    def build_table(self, system: AcmpSystem) -> PowerTable:
        """Measure (analytically) every configuration, like the paper's offline pass."""
        table = {cfg: self.active_power_w(system, cfg) for cfg in system.configurations()}
        return PowerTable(active_w=table, idle_w=self.idle_power_w(system))
