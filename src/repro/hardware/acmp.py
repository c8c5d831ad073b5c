"""Asymmetric chip-multiprocessor (ACMP) description.

An ACMP system is a set of clusters (typically one high-performance
out-of-order "big" cluster and one energy-conserving in-order "little"
cluster), each exposing a ladder of DVFS frequencies.  The scheduling knob
used throughout the paper is a ``<core, frequency>`` tuple, represented here
by :class:`AcmpConfig`.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

#: Name suffix appended by :meth:`AcmpSystem.with_frequency_cap`.  Stripped
#: before re-suffixing so repeated caps rewrite the tag instead of stacking
#: ``@1100mhz@900mhz`` chains.
_CAP_SUFFIX = re.compile(r"@\d+mhz$")


class ClusterKind(enum.Enum):
    """Microarchitectural class of a cluster."""

    BIG = "big"
    LITTLE = "little"


@dataclass(frozen=True)
class Cluster:
    """One homogeneous core cluster of an ACMP system.

    Parameters
    ----------
    name:
        Human-readable cluster name, e.g. ``"A15"``.
    kind:
        Whether this is the big (out-of-order) or little (in-order) cluster.
    core_count:
        Number of cores in the cluster.
    frequencies_mhz:
        Available DVFS operating points in MHz, ascending.
    perf_scale:
        Relative single-thread performance of the cluster at equal frequency,
        normalised so the big cluster is 1.0.  The little in-order cluster
        retires fewer instructions per cycle, so its ``perf_scale`` is < 1.
    """

    name: str
    kind: ClusterKind
    core_count: int
    frequencies_mhz: tuple[int, ...]
    perf_scale: float = 1.0
    #: Design maximum of the silicon when the ladder has been truncated by a
    #: policy constraint (see :meth:`AcmpSystem.with_frequency_cap`).  The
    #: power model scales against this value, so a capped operating point
    #: draws exactly what it draws on the unconstrained platform.  ``None``
    #: means the ladder is complete and the top rung is the design maximum.
    nominal_max_frequency_mhz: int | None = None
    #: Leakage-area multiplier relative to the cluster the power parameters
    #: were calibrated for.  Platform-sweep variants that add or remove
    #: cores scale this by ``new_core_count / calibrated_core_count``: the
    #: events themselves are single-threaded, so extra cores change static
    #: leakage and idle draw (more powered silicon), not dynamic power.
    power_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.core_count <= 0:
            raise ValueError("core_count must be positive")
        if self.power_scale <= 0:
            raise ValueError("power_scale must be positive")
        if not self.frequencies_mhz:
            raise ValueError("a cluster needs at least one frequency")
        if list(self.frequencies_mhz) != sorted(self.frequencies_mhz):
            raise ValueError("frequencies_mhz must be ascending")
        if len(set(self.frequencies_mhz)) != len(self.frequencies_mhz):
            raise ValueError("frequencies_mhz must be unique")
        if not 0.0 < self.perf_scale <= 1.0:
            raise ValueError("perf_scale must be in (0, 1]")
        if (
            self.nominal_max_frequency_mhz is not None
            and self.nominal_max_frequency_mhz < self.frequencies_mhz[-1]
        ):
            raise ValueError("nominal_max_frequency_mhz cannot be below the ladder maximum")

    @property
    def min_frequency_mhz(self) -> int:
        return self.frequencies_mhz[0]

    @property
    def max_frequency_mhz(self) -> int:
        return self.frequencies_mhz[-1]

    @property
    def design_max_frequency_mhz(self) -> int:
        """The silicon's maximum frequency, ignoring any policy cap."""
        return self.nominal_max_frequency_mhz or self.frequencies_mhz[-1]

    def ceil_frequency(self, target_mhz: float) -> int:
        """Return the smallest available frequency >= ``target_mhz``.

        Returns the maximum frequency if the target exceeds the ladder.
        """
        for freq in self.frequencies_mhz:
            if freq >= target_mhz:
                return freq
        return self.max_frequency_mhz


@dataclass(frozen=True, order=True)
class AcmpConfig:
    """A ``<core, frequency>`` scheduling configuration.

    The ordering (cluster name, then frequency) is only used to make
    collections of configurations deterministic; it carries no performance
    meaning.
    """

    cluster_name: str
    frequency_mhz: int

    @property
    def frequency_ghz(self) -> float:
        return self.frequency_mhz / 1000.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.cluster_name}, {self.frequency_mhz} MHz>"


@dataclass
class AcmpSystem:
    """A full ACMP system: a named set of clusters.

    The system enumerates the configuration space used by every scheduler,
    and knows which cluster a configuration belongs to.
    """

    name: str
    clusters: Sequence[Cluster]
    _by_name: dict[str, Cluster] = field(init=False, repr=False)
    #: Throttled copies of this platform by cap, kept by :func:`repro.schedulers.base.capped_system`.
    capped_systems: dict[int, "AcmpSystem"] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.clusters:
            raise ValueError("an ACMP system needs at least one cluster")
        names = [c.name for c in self.clusters]
        if len(set(names)) != len(names):
            raise ValueError("cluster names must be unique")
        self._by_name = {c.name: c for c in self.clusters}

    def cluster(self, name: str) -> Cluster:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown cluster {name!r} in system {self.name!r}") from None

    def cluster_of(self, config: AcmpConfig) -> Cluster:
        return self.cluster(config.cluster_name)

    @property
    def big_cluster(self) -> Cluster:
        return self._cluster_by_kind(ClusterKind.BIG)

    @property
    def little_cluster(self) -> Cluster:
        return self._cluster_by_kind(ClusterKind.LITTLE)

    def _cluster_by_kind(self, kind: ClusterKind) -> Cluster:
        for cluster in self.clusters:
            if cluster.kind is kind:
                return cluster
        raise LookupError(f"system {self.name!r} has no {kind.value} cluster")

    def configurations(self) -> list[AcmpConfig]:
        """Enumerate every ``<core, frequency>`` configuration, deterministic order."""
        configs: list[AcmpConfig] = []
        for cluster in self.clusters:
            for freq in cluster.frequencies_mhz:
                configs.append(AcmpConfig(cluster.name, freq))
        return configs

    @cached_property
    def operating_points(self) -> tuple[tuple[AcmpConfig, float], ...]:
        """``(config, effective_frequency_ghz(config))`` in :meth:`configurations` order.

        Computed once per platform; Eqn. 1 cannot divide by a non-positive
        effective frequency, so one raises ``ValueError``.
        """
        points = tuple((config, self.effective_frequency_ghz(config)) for config in self.configurations())
        for config, effective_ghz in points:
            if effective_ghz <= 0:
                raise ValueError(f"configuration {config} has non-positive frequency")
        return points

    @property
    def max_performance_config(self) -> AcmpConfig:
        """The highest-performance configuration (big cluster at max frequency)."""
        big = self.big_cluster
        return AcmpConfig(big.name, big.max_frequency_mhz)

    @property
    def min_performance_config(self) -> AcmpConfig:
        """The lowest-performance configuration (little cluster at min frequency)."""
        little = self.little_cluster
        return AcmpConfig(little.name, little.min_frequency_mhz)

    @property
    def base_name(self) -> str:
        """The system name with any ``@<cap>mhz`` throttle suffix removed."""
        return _CAP_SUFFIX.sub("", self.name)

    def with_frequency_cap(self, cap_mhz: int) -> "AcmpSystem":
        """A copy of this system restricted to operating points <= ``cap_mhz``.

        Models OS-level low-battery throttling: the governor refuses to
        schedule above the cap, shrinking every scheduler's configuration
        space.  A cluster whose entire ladder sits above the cap keeps only
        its minimum frequency so it remains schedulable.  Each capped
        cluster records its original design maximum
        (``nominal_max_frequency_mhz``), so the analytical power model
        charges a kept operating point exactly what the unconstrained
        platform would.

        Capping is idempotent: successive caps compose as their minimum,
        re-applying a cap that no longer removes any operating point
        returns ``self`` (even on a ladder already collapsed to its
        minimum frequency), and the ``@<cap>mhz`` name suffix is rewritten
        rather than stacked.  Thermal throttling
        (:mod:`repro.hardware.thermal`) re-applies caps on systems the
        regime may already have capped, so the ``self``-return and
        value-equality contracts are load-bearing, not cosmetic.
        """
        if cap_mhz <= 0:
            raise ValueError("cap_mhz must be positive")
        capped: list[Cluster] = []
        for cluster in self.clusters:
            kept = tuple(f for f in cluster.frequencies_mhz if f <= cap_mhz)
            if kept == cluster.frequencies_mhz:
                capped.append(cluster)
                continue
            candidate = replace(
                cluster,
                frequencies_mhz=kept or (cluster.min_frequency_mhz,),
                nominal_max_frequency_mhz=cluster.design_max_frequency_mhz,
            )
            # A ladder already collapsed to its minimum survives any lower
            # cap unchanged; reuse the original so the no-op is detectable.
            capped.append(cluster if candidate == cluster else candidate)
        if all(capped_c is original for capped_c, original in zip(capped, self.clusters)):
            return self
        return AcmpSystem(name=f"{self.base_name}@{cap_mhz}mhz", clusters=tuple(capped))

    def effective_frequency_ghz(self, config: AcmpConfig) -> float:
        """Frequency scaled by the cluster's relative IPC.

        The DVFS latency model divides the compute cycles by this effective
        frequency, so an in-order little core at the same nominal frequency
        yields a longer execution time than the out-of-order big core.
        """
        cluster = self.cluster_of(config)
        return config.frequency_ghz * cluster.perf_scale
