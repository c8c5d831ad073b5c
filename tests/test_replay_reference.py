"""Differential tests of the reactive replay kernel against its reference path.

The kernel reads each configuration's effective GHz and power from a table
built once per platform, the EBS and Interactive schedulers hand out
memoised plans, and the live thermal state recomputes its cap only when the
temperature moves.  The references here are the code each of those
replaced, kept test-side:

* :func:`reference_execute_plan` evaluates ``DvfsModel.latency_ms`` and
  ``PowerTable.power_w`` per phase;
* :class:`ReferenceInteractive` and ``ReferenceEbs`` build a fresh plan per
  event (EBS from a ``DvfsModel`` prediction);
* :class:`ReferenceThermal` asks the thermal model for the cap on every read.

Whole sessions must come out with the same bits (the packed shard payload
compares every float by its bits) on every built-in platform and a capped
copy of it, under each thermal curve, with ramps, DVFS-fault holds,
brown-outs, rail sags and sensor faults.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import get_fault_preset
from repro.hardware.acmp import AcmpConfig
from repro.hardware.dvfs import DvfsModel
from repro.hardware.platforms import get_platform, list_platforms
from repro.hardware.thermal import THERMAL_MODELS
from repro.runtime import engine
from repro.runtime.engine import ReactiveEngine, _SessionThermal, execute_plan
from repro.runtime.simulator import SimulationSetup
from repro.schedulers.base import ConfigPhase, EventContext, ExecutionPlan, capped_system
from repro.schedulers.ebs import EbsScheduler
from repro.schedulers.interactive import InteractiveGovernor
from repro.schedulers.ondemand import OndemandGovernor
from repro.traces.generator import TraceGenerator
from repro.traces.trace import TraceEvent
from repro.webapp.events import EventType

from test_property_options import ReferenceEbs


def reference_execute_plan(setup, plan, workload, start_ms, previous_config):
    """``execute_plan`` before the per-platform table: Eqn. 1 and the power
    lookup evaluated per phase."""
    elapsed = 0.0
    energy = 0.0
    remaining = 1.0
    current = previous_config
    for phase in plan.phases:
        switch = setup.switching.switch_latency_ms(current, phase.config)
        power = setup.power_table.power_w(phase.config)
        if switch > 0.0:
            elapsed += switch
            energy += power * switch
        current = phase.config
        full_latency = workload.latency_ms(setup.system, phase.config)
        needed = remaining * full_latency
        if phase.duration_ms is None or needed <= phase.duration_ms:
            elapsed += needed
            energy += power * needed
            remaining = 0.0
            break
        elapsed += phase.duration_ms
        energy += power * phase.duration_ms
        remaining -= phase.duration_ms / full_latency
    if remaining > 1e-9:
        raise RuntimeError("execution plan ended before the event's work completed")
    return start_ms + elapsed, elapsed, energy, current


class ReferenceInteractive(InteractiveGovernor):
    """The governor building two configurations and a plan per event."""

    def plan(self, ctx):
        big = ctx.system.big_cluster
        utilisation = self._utilisation(ctx)
        if utilisation >= self.high_util_threshold:
            initial_freq = big.max_frequency_mhz
        else:
            target = big.max_frequency_mhz * utilisation / self.high_util_threshold
            initial_freq = big.ceil_frequency(max(target, big.min_frequency_mhz))
        initial = AcmpConfig(big.name, initial_freq)
        final = AcmpConfig(big.name, big.max_frequency_mhz)
        if initial == final:
            return ExecutionPlan.single(final)
        return ExecutionPlan.ramp(initial, self.sample_period_ms, final)


class ReferenceThermal(_SessionThermal):
    """The live thermal state asking its model for the cap on every read."""

    def _refresh_cap(self) -> None:
        pass

    def _cap(self) -> int:
        if self._faults is None:
            return self.state.cap_mhz
        return self.state.model.cap_mhz(self._sensed_c)

    @property
    def throttled_now(self) -> bool:
        return self._cap() < self._full_max_mhz

    def system_now(self):
        cap = self._cap()
        if cap >= self._full_max_mhz:
            return self._base_system
        return capped_system(self._base_system, cap)


PLATFORMS = {name: get_platform(name) for name in list_platforms()}
#: Every platform, and a copy capped below its top rungs.
SYSTEMS = {
    **PLATFORMS,
    **{f"{name}@1100": system.with_frequency_cap(1100) for name, system in PLATFORMS.items()},
}
#: Each curve, and a warm-ambient copy that throttles and recovers within a session.
THERMALS = {
    None: None,
    **THERMAL_MODELS,
    "cramped_warm": dataclasses.replace(THERMAL_MODELS["cramped_chassis"], ambient_c=40.0),
}
SETUPS = {name: SimulationSetup(system=system) for name, system in SYSTEMS.items()}
FAULTS = (
    "dvfs_flaky",
    "sensor_noisy",
    "sensor_stuck",
    "sensor_bursty",
    "battery_sag",
    "rail_brownout",
    "chaos",
)
SCHEMES = {
    "Interactive": (InteractiveGovernor, ReferenceInteractive),
    "EBS": (EbsScheduler, ReferenceEbs),
    "Ondemand": (OndemandGovernor, OndemandGovernor),
}


@pytest.fixture(scope="module")
def traces():
    generator = TraceGenerator()
    return [generator.generate(app, seed=seed) for app, seed in (("cnn", 11), ("amazon", 12), ("bbc", 13))]


def replay_both(setup, traces, scheme, monkeypatch):
    """Each trace replayed by the fast kernel and by the reference path."""
    fast_factory, reference_factory = SCHEMES[scheme]
    fast_scheduler = fast_factory()
    fast = [ReactiveEngine(setup).run(trace, fast_scheduler) for trace in traces]
    with monkeypatch.context() as patched:
        patched.setattr(engine, "execute_plan", reference_execute_plan)
        patched.setattr(engine, "_SessionThermal", ReferenceThermal)
        reference_scheduler = reference_factory()
        reference = [ReactiveEngine(setup).run(trace, reference_scheduler) for trace in traces]
    return fast, reference


def assert_same_bits(fast, reference):
    for got, expected in zip(fast, reference, strict=True):
        assert got.to_dict() == expected.to_dict()
        assert got.thermal == expected.thermal
        assert got.faults == expected.faults


class TestSessionsMatchTheReferencePath:
    @pytest.mark.parametrize("system_name", sorted(SYSTEMS))
    @pytest.mark.parametrize("thermal", sorted(THERMALS, key=str))
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_platforms_and_thermal_curves(self, system_name, thermal, scheme, traces, monkeypatch):
        setup = SimulationSetup(system=SYSTEMS[system_name], thermal=THERMALS[thermal])
        fast, reference = replay_both(setup, traces, scheme, monkeypatch)
        assert_same_bits(fast, reference)

    @pytest.mark.parametrize("faults", FAULTS)
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_fault_presets_under_a_live_curve(self, faults, scheme, traces, monkeypatch):
        setup = SimulationSetup(
            system=PLATFORMS["exynos5410"],
            thermal=THERMALS["cramped_warm"],
            faults=get_fault_preset(faults),
        )
        fast, reference = replay_both(setup, traces, scheme, monkeypatch)
        assert_same_bits(fast, reference)

    def test_the_matrix_reaches_throttling_ramps_and_fault_holds(self, traces, monkeypatch):
        # The cases above are only worth their bits if they exercise the paths.
        warm = SimulationSetup(system=PLATFORMS["exynos5410"], thermal=THERMALS["cramped_warm"])
        fast, _ = replay_both(warm, traces, "Interactive", monkeypatch)
        assert sum(result.thermal.throttled_events for result in fast) > 0
        assert sum(result.thermal.unthrottled_events for result in fast) > 0
        governor = InteractiveGovernor()
        for trace in traces:
            ReactiveEngine(warm).run(trace, governor)
        assert any(len(plan.phases) == 2 for plan in governor._plans.values())
        for preset, injected in (
            ("dvfs_flaky", "dvfs_injected"),
            ("sensor_noisy", "sensor_injected"),
            ("rail_brownout", "battery_injected"),
        ):
            faulty = dataclasses.replace(warm, faults=get_fault_preset(preset))
            fast, _ = replay_both(faulty, traces, "EBS", monkeypatch)
            assert sum(getattr(result.faults, injected) for result in fast) > 0, preset


@st.composite
def plans(draw, system):
    """A one- or two-phase plan over ``system``'s configurations."""
    configs = system.configurations()
    final = draw(st.sampled_from(configs))
    if draw(st.booleans()):
        return ExecutionPlan.single(final)
    initial = draw(st.sampled_from(configs))
    duration = draw(st.floats(min_value=0.01, max_value=60.0, allow_nan=False))
    return ExecutionPlan(phases=(ConfigPhase(initial, duration), ConfigPhase(final)))


class TestExecutePlanMatchesTheReference:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_every_platform_and_capped_copy(self, data):
        name = data.draw(st.sampled_from(sorted(SYSTEMS)))
        setup = SETUPS[name]
        planned = data.draw(st.sampled_from([setup.system, capped_system(setup.system, 900)]))
        plan = data.draw(plans(planned))
        workload = DvfsModel(
            data.draw(st.floats(min_value=0.0, max_value=500.0, allow_nan=False)),
            data.draw(st.floats(min_value=0.0, max_value=5_000.0, allow_nan=False)),
        )
        previous = data.draw(st.none() | st.sampled_from(setup.system.configurations()))
        start = data.draw(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
        assert execute_plan(setup, plan, workload, start, previous) == reference_execute_plan(
            setup, plan, workload, start, previous
        )


class TestPlansAreMemoisedByValue:
    @given(
        name=st.sampled_from(sorted(SYSTEMS)),
        idles=st.lists(st.floats(min_value=0.0, max_value=300.0, allow_nan=False), min_size=1, max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_interactive_plans_equal_fresh_ones_and_repeat_by_identity(self, name, idles):
        system = SYSTEMS[name]
        fast, reference = InteractiveGovernor(), ReferenceInteractive()
        for idle in idles:
            ctx = _context(system, idle_ms=idle)
            plan = fast.plan(ctx)
            assert plan == reference.plan(ctx)
            assert fast.plan(ctx) is plan

    def test_ebs_shares_a_plan_between_equal_configurations_of_two_platforms(self):
        base = PLATFORMS["exynos5410"]
        capped = capped_system(base, 1100)
        power_table = SETUPS["exynos5410"].power_table
        scheduler = EbsScheduler()
        on_base = scheduler.plan(_context(base, idle_ms=0.0, power_table=power_table))
        on_capped = scheduler.plan(_context(capped, idle_ms=0.0, power_table=power_table))
        assert on_base.final_config.frequency_mhz <= 1100
        twin = next(c for c, _, _ in power_table.priced_points(capped) if c == on_base.final_config)
        assert twin is not on_base.final_config
        assert on_capped is on_base


def _context(system, *, idle_ms, power_table=None):
    """A light click at t=0 planned on ``system``."""
    event = TraceEvent(0, EventType.CLICK, "n", 0.0, DvfsModel(1.0, 10.0))
    if power_table is None:
        power_table = SimulationSetup(system=system).power_table
    return EventContext(event, 0.0, system, power_table, idle_ms)
