"""Scheduler interfaces shared by the baselines and the runtime engine.

A reactive scheduler is consulted once per event, when the event is about
to start executing, and answers with an :class:`ExecutionPlan`: an ordered
list of :class:`ConfigPhase` entries.  QoS-aware schedulers (EBS, PES)
return a single phase; utilisation-driven governors (Interactive, Ondemand)
return a ramp — an initial phase at the frequency their sampling logic has
settled on, followed by the frequency they converge to once the event's
work drives utilisation up.
"""

from __future__ import annotations

import abc
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple

from repro.hardware.acmp import AcmpConfig, AcmpSystem
from repro.hardware.dvfs import DvfsModel
from repro.hardware.power import PowerTable
from repro.traces.trace import TraceEvent
from repro.utils import ValidatedRecord


@dataclass(frozen=True)
class ConfigPhase:
    """Run at ``config`` for at most ``duration_ms`` (None = until done)."""

    config: AcmpConfig
    duration_ms: float | None = None

    def __post_init__(self) -> None:
        if self.duration_ms is not None and self.duration_ms <= 0:
            raise ValueError("phase duration must be positive (or None for unbounded)")


@dataclass(frozen=True)
class ExecutionPlan:
    """Ordered configuration phases for executing one event."""

    phases: tuple[ConfigPhase, ...]

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("an execution plan needs at least one phase")
        if self.phases[-1].duration_ms is not None:
            raise ValueError("the final phase must be unbounded (duration None)")

    @classmethod
    def single(cls, config: AcmpConfig) -> "ExecutionPlan":
        return cls(phases=(ConfigPhase(config),))

    @classmethod
    def ramp(cls, initial: AcmpConfig, initial_duration_ms: float, final: AcmpConfig) -> "ExecutionPlan":
        if initial == final:
            return cls.single(final)
        return cls(phases=(ConfigPhase(initial, initial_duration_ms), ConfigPhase(final)))

    @property
    def final_config(self) -> AcmpConfig:
        return self.phases[-1].config


class EventContext(NamedTuple):
    """Everything a reactive scheduler may consult when planning one event."""

    event: TraceEvent
    start_ms: float
    system: AcmpSystem
    power_table: PowerTable
    idle_before_ms: float = 0.0

    @property
    def remaining_budget_ms(self) -> float:
        """Time left until the event's deadline when execution starts."""
        return self.event.deadline_ms - self.start_ms


class ReactiveScheduler(abc.ABC):
    """Base class for schedulers that plan one outstanding event at a time."""

    #: Human-readable scheme name used in reports and figures.
    name: str = "reactive"

    @abc.abstractmethod
    def plan(self, ctx: EventContext) -> ExecutionPlan:
        """Return the execution plan for the event described by ``ctx``."""

    def reset(self) -> None:
        """Clear any per-session state before replaying a new trace."""


class ConfigOption(ValidatedRecord, namedtuple("ConfigOption", "config latency_ms power_w energy_mj")):
    """One point of an event's latency/energy trade-off space.

    Built from ``config``, ``latency_ms`` and ``power_w``; ``energy_mj`` is
    their product, materialised at construction time: the solvers read it
    millions of times per evaluation run, so it is a plain field rather
    than a recomputed property.  Every construction path derives it, so it
    is never stale: ``_make`` takes the three inputs (a fourth value, an
    old ``energy_mj``, is recomputed), ``_replace`` refuses ``energy_mj``,
    and pickling passes the three inputs.
    """

    __slots__ = ()

    def __new__(cls, config: AcmpConfig, latency_ms: float, power_w: float) -> ConfigOption:
        return tuple.__new__(cls, (config, latency_ms, power_w, power_w * latency_ms))

    @classmethod
    def _make(cls, iterable) -> ConfigOption:
        config, latency_ms, power_w, *energy = iterable
        if len(energy) > 1:
            raise TypeError(f"ConfigOption takes 3 or 4 values, not {3 + len(energy)}")
        return cls(config, latency_ms, power_w)

    def _replace(self, **changes) -> ConfigOption:
        if "energy_mj" in changes:
            raise ValueError("energy_mj is derived from latency_ms and power_w")
        return super()._replace(**changes)

    def __getnewargs__(self) -> tuple:
        return self[:3]


def capped_system(system: AcmpSystem, cap_mhz: int) -> AcmpSystem:
    """``system.with_frequency_cap(cap_mhz)``, memoised on ``system`` with a stable identity.

    Dynamic thermal throttling asks for the same few capped platforms on every event.
    The capped platform keeps each cluster's ``perf_scale`` and design-maximum
    frequency, so options enumerated on it carry exactly the latency/power of an
    identically capped *static* platform.
    """
    capped = system.capped_systems.get(cap_mhz)
    if capped is None:
        capped = system.capped_systems[cap_mhz] = system.with_frequency_cap(cap_mhz)
    return capped


def enumerate_options(
    system: AcmpSystem,
    power_table: PowerTable,
    workload: DvfsModel,
    *,
    pareto_only: bool = False,
) -> list[ConfigOption]:
    """Enumerate the latency/energy of every configuration for a workload.

    With ``pareto_only`` the list is pruned to configurations that are not
    dominated (no other option is both faster and cheaper), which is the
    candidate set the optimizer branches over.  Options are returned sorted
    by ascending latency, ties by ascending energy, then in
    :meth:`AcmpSystem.configurations` order.

    Eqn. 1 is evaluated over the platform's operating points, priced once
    per table, with the float expression of :meth:`DvfsModel.latency_ms`.
    One pass in speed order (:meth:`PowerTable.points_by_speed`) yields that
    sort whenever the latency rises strictly along it; on any tie (a
    workload with no CPU work, two points of one effective frequency, or a
    rounding collision) the points are sorted as above instead.  The options
    themselves depend on the workload and are not memoised: every call
    returns a new list.
    """
    tmem, ndep = workload.tmem_ms, workload.ndep_mcycles
    options: list[ConfigOption] = []
    best_energy = float("inf")
    previous = float("-inf")
    for config, effective_ghz, power_w in power_table.points_by_speed(system):
        latency_ms = tmem + ndep / effective_ghz
        if not latency_ms > previous:
            return _sorted_options(system, power_table, tmem, ndep, pareto_only)
        previous = latency_ms
        if pareto_only:
            energy_mj = power_w * latency_ms
            if not energy_mj < best_energy - 1e-12:
                continue
            best_energy = energy_mj
        options.append(ConfigOption(config, latency_ms, power_w))
    return options


def _sorted_options(
    system: AcmpSystem, power_table: PowerTable, tmem: float, ndep: float, pareto_only: bool
) -> list[ConfigOption]:
    """:func:`enumerate_options` by an explicit sort of every priced point."""
    # Rows sort as a stable sort by (latency, energy) would; ConfigOption computes
    # energy_mj with the same product, so only the options kept are built.
    rows = []
    for index, (config, effective_ghz, power_w) in enumerate(power_table.priced_points(system)):
        latency_ms = tmem + ndep / effective_ghz
        rows.append((latency_ms, power_w * latency_ms, index, config, power_w))
    rows.sort()
    options: list[ConfigOption] = []
    best_energy = float("inf")
    for latency_ms, energy_mj, _, config, power_w in rows:
        if pareto_only:
            if not energy_mj < best_energy - 1e-12:
                continue
            best_energy = energy_mj
        options.append(ConfigOption(config, latency_ms, power_w))
    return options
