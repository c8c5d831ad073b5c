"""Differential tests (hypothesis) of ``enumerate_options`` against the naive sweep.

``enumerate_options`` evaluates Eqn. 1 over each platform's precomputed
operating-point table.  The reference here is the sweep it replaced:
``workload.latency_ms(system, config)`` over ``system.configurations()`` of
a freshly capped platform, sorted by (latency, energy) and pruned to the
Pareto front.  The two must agree exactly, down to the bits of every float.

EBS picks its configuration in one pass over the priced operating points;
its reference is the planner it replaced, ``min`` over ``enumerate_options``.
"""

import math
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.hardware.acmp import AcmpSystem, Cluster, ClusterKind
from repro.hardware.dvfs import DvfsModel
from repro.hardware.platforms import get_platform, list_platforms
from repro.hardware.power import PowerModel
from repro.schedulers import ebs
from repro.schedulers.base import ConfigOption, ExecutionPlan, capped_system, enumerate_options
from repro.schedulers.ebs import EbsScheduler
from repro.traces.trace import TraceEvent
from repro.webapp.events import EventType

PLATFORMS = {name: get_platform(name) for name in list_platforms()}
POWER_TABLES = {name: PowerModel().build_table(system) for name, system in PLATFORMS.items()}

workloads = st.builds(
    DvfsModel,
    tmem_ms=st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
    ndep_mcycles=st.floats(min_value=0.0, max_value=5000.0, allow_nan=False),
)


def naive_options(system, power_table, workload, pareto_only):
    options = [
        ConfigOption(config, workload.latency_ms(system, config), power_table.power_w(config))
        for config in system.configurations()
    ]
    options.sort(key=lambda o: (o.latency_ms, o.energy_mj))
    if not pareto_only:
        return options
    pruned: list[ConfigOption] = []
    best_energy = float("inf")
    for option in options:
        if option.energy_mj < best_energy - 1e-12:
            pruned.append(option)
            best_energy = option.energy_mj
    return pruned


def bits(options):
    return [
        (o.config, o.latency_ms.hex(), o.power_w.hex(), o.energy_mj.hex()) for o in options
    ]


def caps(system):
    """``None`` (no throttle) and every rung of every cluster's ladder."""
    return [None, *sorted({f for cluster in system.clusters for f in cluster.frequencies_mhz})]


class TestEnumerateOptionsMatchesNaiveSweep:
    @given(workload=workloads)
    @example(workload=DvfsModel(0.0, 0.0))
    @example(workload=DvfsModel(0.0, 250.0))
    @example(workload=DvfsModel(12.5, 0.0))
    @settings(max_examples=40, deadline=None)
    def test_every_platform_cap_and_prune(self, workload):
        for name, system in PLATFORMS.items():
            power_table = POWER_TABLES[name]
            for cap_mhz in caps(system):
                reference_system = system if cap_mhz is None else system.with_frequency_cap(cap_mhz)
                planned = system if cap_mhz is None else capped_system(system, cap_mhz)
                for pareto_only in (False, True):
                    expected = naive_options(reference_system, power_table, workload, pareto_only)
                    got = enumerate_options(planned, power_table, workload, pareto_only=pareto_only)
                    assert got == expected
                    assert bits(got) == bits(expected)

    def test_mutating_a_result_leaves_the_next_call_unchanged(self):
        system, power_table = PLATFORMS["exynos5410"], POWER_TABLES["exynos5410"]
        workload = DvfsModel(4.0, 180.0)
        expected = bits(naive_options(system, power_table, workload, pareto_only=True))
        first = enumerate_options(system, power_table, workload, pareto_only=True)
        first.reverse()
        first.append(first[0])
        first[0] = first[-1]
        again = enumerate_options(system, power_table, workload, pareto_only=True)
        assert again is not first
        assert bits(again) == expected

    def test_capped_platforms_are_derived_once_per_base(self):
        system = get_platform("exynos5410")
        top = system.big_cluster.max_frequency_mhz
        assert capped_system(system, top) is system
        assert capped_system(system, 1200) is capped_system(system, 1200)
        assert capped_system(system, 1200) == system.with_frequency_cap(1200)
        assert capped_system(get_platform("exynos5410"), 1200) is not capped_system(system, 1200)

    @given(workload=workloads)
    @settings(max_examples=30, deadline=None)
    def test_equal_effective_frequencies_take_the_sorted_fallback(self, workload):
        # 1000 MHz on the big cluster and 2000 MHz at half the IPC on the
        # little one are both 1 effective GHz: their latencies tie for every
        # workload, so the one pass must hand over to the sort.
        from repro.schedulers import base

        system = AcmpSystem(
            name="tied",
            clusters=(
                Cluster("big", ClusterKind.BIG, 1, (600, 1000, 1400)),
                Cluster("little", ClusterKind.LITTLE, 1, (800, 2000), perf_scale=0.5),
            ),
        )
        power_table = PowerModel().build_table(system)
        speeds = [ghz for _, ghz, _ in power_table.points_by_speed(system)]
        assert speeds == sorted(speeds, reverse=True) and len(set(speeds)) < len(speeds)
        fallbacks = []
        sort = base._sorted_options
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(base, "_sorted_options", lambda *args: fallbacks.append(args) or sort(*args))
            for pareto_only in (False, True):
                got = enumerate_options(system, power_table, workload, pareto_only=pareto_only)
                assert bits(got) == bits(naive_options(system, power_table, workload, pareto_only))
        assert len(fallbacks) == 2

    def test_rising_latencies_take_the_one_pass(self, monkeypatch):
        from repro.schedulers import base

        monkeypatch.setattr(base, "_sorted_options", None)
        for name, system in PLATFORMS.items():
            got = enumerate_options(system, POWER_TABLES[name], DvfsModel(4.0, 180.0), pareto_only=True)
            assert bits(got) == bits(naive_options(system, POWER_TABLES[name], DvfsModel(4.0, 180.0), True))

    def test_non_positive_effective_frequency_is_rejected(self):
        system = AcmpSystem(
            name="broken",
            clusters=(Cluster("big", ClusterKind.BIG, 1, (0, 1000)),),
        )
        power_table = PowerModel().build_table(system)
        for _ in range(2):
            with pytest.raises(ValueError, match="non-positive frequency"):
                enumerate_options(system, power_table, DvfsModel(1.0, 10.0))


class ReferenceEbs(EbsScheduler):
    """EBS as it was: a ``DvfsModel`` prediction from three per-type sums,
    every option built and sorted, then two ``min``s."""

    def reset(self):
        self._sum_tmem, self._sum_ndep, self._count = {}, {}, {}

    def _predict_workload(self, ctx):
        event_type = ctx.event.event_type
        count = self._count.get(event_type, 0)
        if count < self.calibration_runs or count == 0:
            return ctx.event.workload
        return DvfsModel(
            tmem_ms=self._sum_tmem[event_type] / count * self.workload_safety_factor,
            ndep_mcycles=self._sum_ndep[event_type] / count * self.workload_safety_factor,
        )

    def _record(self, ctx):
        event_type = ctx.event.event_type
        workload = ctx.event.workload
        self._sum_tmem[event_type] = self._sum_tmem.get(event_type, 0.0) + workload.tmem_ms
        self._sum_ndep[event_type] = self._sum_ndep.get(event_type, 0.0) + workload.ndep_mcycles
        self._count[event_type] = self._count.get(event_type, 0) + 1

    def plan(self, ctx):
        if not hasattr(self, "_count"):
            self.reset()
        predicted_workload = self._predict_workload(ctx)
        self._record(ctx)
        options = enumerate_options(ctx.system, ctx.power_table, predicted_workload)
        # Read through the module, so a test that patches EBS's margin
        # patches the reference's too.
        budget = ctx.remaining_budget_ms - ebs.PLANNING_MARGIN_MS
        feasible = [o for o in options if o.latency_ms <= budget]
        if feasible:
            best = min(feasible, key=lambda o: (o.energy_mj, o.latency_ms))
            return ExecutionPlan.single(best.config)
        fastest = min(options, key=lambda o: (o.latency_ms, o.energy_mj))
        return ExecutionPlan.single(fastest.config)


#: Two identical big clusters: every rung of ``twin-b`` ties exactly with the
#: same rung of ``twin-a``, so only the lowest-index rule tells them apart.
TWINS = AcmpSystem(
    name="twins",
    clusters=(
        Cluster("twin-a", ClusterKind.BIG, 2, (800, 1200, 1600)),
        Cluster("twin-b", ClusterKind.BIG, 2, (800, 1200, 1600)),
        Cluster("little", ClusterKind.LITTLE, 4, (600, 1000), perf_scale=0.6),
    ),
)
EBS_PLATFORMS = {**PLATFORMS, "twins": TWINS}
EBS_POWER_TABLES = {**POWER_TABLES, "twins": PowerModel().build_table(TWINS)}


def budget_context(system, power_table, workload, budget_ms, event_type=EventType.CLICK, index=0):
    """What ``EbsScheduler.plan`` reads, with the remaining budget set exactly."""
    event = TraceEvent(index=index, event_type=event_type, node_id="n", arrival_ms=0.0, workload=workload)
    return SimpleNamespace(event=event, remaining_budget_ms=budget_ms, system=system, power_table=power_table)


def planning_margin(margin_ms):
    """EBS's planning margin set to ``margin_ms`` for the ``with`` body.

    Patched inside the test body: hypothesis allows no function-scoped
    fixture on a ``@given`` test.
    """
    return mock.patch.object(ebs, "PLANNING_MARGIN_MS", margin_ms)


def edge_budgets(system, power_table, workload):
    """Each option's latency and the floats one ulp either side, plus the extremes."""
    budgets = [-math.inf, 0.0, math.inf]
    for option in enumerate_options(system, power_table, workload):
        latency = option.latency_ms
        budgets += [math.nextafter(latency, -math.inf), latency, math.nextafter(latency, math.inf)]
    return budgets


class TestEbsOnePassMatchesOptionsMin:
    @given(workload=workloads)
    @example(workload=DvfsModel(0.0, 0.0))
    @example(workload=DvfsModel(12.5, 0.0))
    @example(workload=DvfsModel(3.0, 180.0))
    @settings(max_examples=30, deadline=None)
    def test_budgets_at_every_option_latency(self, workload):
        with planning_margin(0.0):
            for name, system in EBS_PLATFORMS.items():
                power_table = EBS_POWER_TABLES[name]
                for cap_mhz in caps(system):
                    planned = system if cap_mhz is None else capped_system(system, cap_mhz)
                    for budget in edge_budgets(planned, power_table, workload):
                        ctx = budget_context(planned, power_table, workload, budget)
                        got = EbsScheduler().plan(ctx)
                        expected = ReferenceEbs().plan(ctx)
                        assert got == expected, (name, cap_mhz, budget)

    def test_exact_ties_go_to_the_lowest_index(self):
        power_table = EBS_POWER_TABLES["twins"]
        workload = DvfsModel(2.0, 240.0)
        with planning_margin(0.0):
            for budget in edge_budgets(TWINS, power_table, workload):
                ctx = budget_context(TWINS, power_table, workload, budget)
                plan = EbsScheduler().plan(ctx)
                assert plan.final_config.cluster_name != "twin-b"
                assert plan == ReferenceEbs().plan(ctx)

    @given(
        platform=st.sampled_from(sorted(EBS_PLATFORMS)),
        events=st.lists(
            st.tuples(
                st.sampled_from([EventType.CLICK, EventType.SCROLL, EventType.LOAD]),
                workloads,
                st.floats(min_value=-50.0, max_value=400.0, allow_nan=False),
            ),
            max_size=12,
        ),
        margin=st.sampled_from([0.0, 8.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_calibrated_sessions_pick_the_same_plans(self, platform, events, margin):
        # Past its calibration runs EBS plans against inflated running
        # averages, so the two schedulers must also agree on those workloads.
        system, power_table = EBS_PLATFORMS[platform], EBS_POWER_TABLES[platform]
        fast, reference = EbsScheduler(), ReferenceEbs()
        with planning_margin(margin):
            for index, (event_type, workload, budget) in enumerate(events):
                ctx = budget_context(system, power_table, workload, budget, event_type, index)
                assert fast.plan(ctx) == reference.plan(ctx)

    @given(
        platform=st.sampled_from(sorted(EBS_PLATFORMS)),
        history=st.lists(workloads, min_size=2, max_size=5),
        workload=workloads,
    )
    @settings(max_examples=40, deadline=None)
    def test_calibrated_predictions_at_every_option_latency(self, platform, history, workload):
        # Budgets on the latencies of the reference's inflated running average,
        # and one ulp either side: a prediction that differs in its last bit
        # picks another plan at one of them.
        system, power_table = EBS_PLATFORMS[platform], EBS_POWER_TABLES[platform]

        def calibrated(scheduler):
            for index, past in enumerate(history):
                scheduler.plan(budget_context(system, power_table, past, 0.0, index=index))
            return scheduler

        predicted = calibrated(ReferenceEbs())._predict_workload(
            budget_context(system, power_table, workload, 0.0, index=len(history))
        )
        with planning_margin(0.0):
            for budget in edge_budgets(system, power_table, predicted):
                ctx = budget_context(system, power_table, workload, budget, index=len(history))
                fast = calibrated(EbsScheduler())
                reference = calibrated(ReferenceEbs())
                assert fast.plan(ctx) == reference.plan(ctx), budget
