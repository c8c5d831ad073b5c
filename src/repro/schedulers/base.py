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
from dataclasses import dataclass, field

from repro.hardware.acmp import AcmpConfig, AcmpSystem
from repro.hardware.dvfs import DvfsModel
from repro.hardware.power import PowerTable
from repro.traces.trace import TraceEvent


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


@dataclass(frozen=True)
class EventContext:
    """Everything a reactive scheduler may consult when planning one event."""

    event: TraceEvent
    start_ms: float
    system: AcmpSystem
    power_table: PowerTable
    idle_before_ms: float = 0.0
    queue_length: int = 0

    @property
    def queue_delay_ms(self) -> float:
        return max(0.0, self.start_ms - self.event.arrival_ms)

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


@dataclass(frozen=True)
class ConfigOption:
    """One point of an event's latency/energy trade-off space.

    ``energy_mj`` is materialised at construction time: the solvers read it
    millions of times per evaluation run, so it is a plain attribute rather
    than a recomputed property.
    """

    config: AcmpConfig
    latency_ms: float
    power_w: float
    energy_mj: float = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "energy_mj", self.power_w * self.latency_ms)


#: Memoised ``enumerate_options`` results.  Keys are
#: ``(id(system), id(power_table), workload, pareto_only)``; each value pins
#: the system/power-table objects so their ids cannot be recycled while the
#: entry lives.  ``DvfsModel`` is a frozen dataclass, so workloads that
#: repeat across events (trained estimators, replayed traces) hash to the
#: same key and skip the full configuration sweep.
_OPTIONS_CACHE: dict[tuple, tuple[AcmpSystem, PowerTable, tuple[ConfigOption, ...]]] = {}

#: Safety valve: evict oldest entries beyond this many cached sweeps.
_OPTIONS_CACHE_MAX = 4096


#: Memoised throttled platforms, keyed ``(id(system), cap_mhz)``.  Each value
#: pins the base system so its id cannot be recycled while the entry lives.
#: Dynamic thermal throttling re-derives the same few capped systems once per
#: event (one per curve step), so the memo keeps both the derivation and —
#: because the returned object's id is stable — the ``_OPTIONS_CACHE`` hits
#: of every scheduler that enumerates options on the capped platform.
_CAPPED_SYSTEMS: dict[tuple[int, int], tuple[AcmpSystem, AcmpSystem]] = {}

#: Safety valve: evict oldest entries beyond this many cached derivations
#: (same role as ``_OPTIONS_CACHE_MAX`` — long-lived services keep building
#: fresh setups, and an evicted entry only costs a re-derivation plus cold
#: option caches for that platform, never correctness).
_CAPPED_SYSTEMS_MAX = 1024


def capped_system(system: AcmpSystem, cap_mhz: int) -> AcmpSystem:
    """``system.with_frequency_cap(cap_mhz)``, memoised with a stable identity."""
    key = (id(system), cap_mhz)
    hit = _CAPPED_SYSTEMS.get(key)
    if hit is not None:
        return hit[1]
    capped = system.with_frequency_cap(cap_mhz)
    if len(_CAPPED_SYSTEMS) >= _CAPPED_SYSTEMS_MAX:
        _CAPPED_SYSTEMS.pop(next(iter(_CAPPED_SYSTEMS)))
    _CAPPED_SYSTEMS[key] = (system, capped)
    return capped


def clear_enumerate_options_cache() -> None:
    """Drop every memoised option sweep (tests / long-lived services)."""
    _OPTIONS_CACHE.clear()
    _CAPPED_SYSTEMS.clear()


def enumerate_options(
    system: AcmpSystem,
    power_table: PowerTable,
    workload: DvfsModel,
    *,
    pareto_only: bool = False,
    cap_mhz: int | None = None,
) -> list[ConfigOption]:
    """Enumerate the latency/energy of every configuration for a workload.

    With ``pareto_only`` the list is pruned to configurations that are not
    dominated (no other option is both faster and cheaper), which is the
    candidate set the optimizer branches over.  Options are returned sorted
    by ascending latency.

    ``cap_mhz`` restricts the sweep to the throttled platform
    (:func:`capped_system`): the candidate set a scheduler may pick from
    while a thermal governor caps the ladder.  Because the capped platform
    keeps each cluster's ``perf_scale`` and design-maximum frequency, the
    filtered options carry exactly the latency/power an identically capped
    *static* platform would produce — the bit-identity the dynamic thermal
    engines rely on.

    Results are memoised per ``(system, power_table, workload, pareto_only)``
    — keyed on the ``DvfsModel`` *value* — because traces re-use workload
    models heavily and the sweep sits on the scheduling hot path.  A fresh
    list is returned on every call so callers may mutate it freely.
    """
    if cap_mhz is not None:
        system = capped_system(system, cap_mhz)
    key = (id(system), id(power_table), workload, pareto_only)
    cached = _OPTIONS_CACHE.get(key)
    if cached is not None:
        return list(cached[2])

    options = [
        ConfigOption(
            config=config,
            latency_ms=workload.latency_ms(system, config),
            power_w=power_table.power_w(config),
        )
        for config in system.configurations()
    ]
    options.sort(key=lambda o: (o.latency_ms, o.energy_mj))
    if pareto_only:
        pruned: list[ConfigOption] = []
        best_energy = float("inf")
        for option in options:
            if option.energy_mj < best_energy - 1e-12:
                pruned.append(option)
                best_energy = option.energy_mj
        options = pruned

    if len(_OPTIONS_CACHE) >= _OPTIONS_CACHE_MAX:
        _OPTIONS_CACHE.pop(next(iter(_OPTIONS_CACHE)))
    _OPTIONS_CACHE[key] = (system, power_table, tuple(options))
    return list(options)
