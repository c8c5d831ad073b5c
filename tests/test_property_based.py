"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import example, given, settings, strategies as st

from repro.core.optimizer.ilp import BranchAndBoundSolver
from repro.core.optimizer.schedule import EventSpec
from repro.hardware.acmp import AcmpConfig
from repro.hardware.dvfs import DvfsModel
from repro.hardware.platforms import exynos_5410
from repro.hardware.power import PowerModel
from repro.schedulers.base import ConfigOption, enumerate_options
from repro.webapp.rendering import VSYNC_PERIOD_MS, next_vsync_ms

SYSTEM = exynos_5410()
POWER = PowerModel().build_table(SYSTEM)

workloads = st.builds(
    DvfsModel,
    tmem_ms=st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
    ndep_mcycles=st.floats(min_value=0.0, max_value=5000.0, allow_nan=False),
)


class TestDvfsProperties:
    @given(workload=workloads)
    @settings(max_examples=60, deadline=None)
    def test_latency_monotone_in_frequency_within_cluster(self, workload):
        for cluster in SYSTEM.clusters:
            latencies = [
                workload.latency_ms(SYSTEM, AcmpConfig(cluster.name, f))
                for f in cluster.frequencies_mhz
            ]
            assert all(a >= b - 1e-9 for a, b in zip(latencies, latencies[1:]))

    @given(workload=workloads)
    @settings(max_examples=60, deadline=None)
    def test_latency_at_least_memory_time(self, workload):
        for config in SYSTEM.configurations():
            assert workload.latency_ms(SYSTEM, config) >= workload.tmem_ms - 1e-12


class TestOptionProperties:
    @given(workload=workloads)
    @settings(max_examples=40, deadline=None)
    def test_pareto_prune_is_subset_and_keeps_extremes(self, workload):
        full = enumerate_options(SYSTEM, POWER, workload)
        pruned = enumerate_options(SYSTEM, POWER, workload, pareto_only=True)
        full_set = {o.config for o in full}
        assert {o.config for o in pruned} <= full_set
        assert min(o.latency_ms for o in pruned) <= min(o.latency_ms for o in full) + 1e-9
        assert min(o.energy_mj for o in pruned) <= min(o.energy_mj for o in full) + 1e-9


# Strategy for small synthetic scheduling windows.
option_strategy = st.builds(
    ConfigOption,
    config=st.sampled_from(SYSTEM.configurations()),
    latency_ms=st.floats(min_value=1.0, max_value=400.0),
    power_w=st.floats(min_value=0.1, max_value=4.0),
)


def spec_strategy(index: int):
    return st.builds(
        lambda options, release, slack: EventSpec(
            label=f"event-{index}",
            release_ms=release,
            deadline_ms=release + slack,
            options=tuple(options),
        ),
        options=st.lists(option_strategy, min_size=1, max_size=4),
        release=st.floats(min_value=0.0, max_value=2000.0),
        slack=st.floats(min_value=50.0, max_value=3000.0),
    )


windows = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(*[spec_strategy(i) for i in range(n)]).map(list)
)


class TestSolverProperties:
    @given(specs=windows)
    @settings(max_examples=40, deadline=None)
    def test_branch_and_bound_feasible_schedules_meet_deadlines(self, specs):
        schedule = BranchAndBoundSolver().solve(specs, 0.0)
        assert len(schedule.assignments) == len(specs)
        if schedule.feasible:
            assert all(a.meets_deadline for a in schedule.assignments)

    @given(specs=windows)
    @settings(max_examples=40, deadline=None)
    def test_execution_order_preserved(self, specs):
        schedule = BranchAndBoundSolver().solve(specs, 0.0)
        finishes = [a.finish_ms for a in schedule.assignments]
        assert all(a <= b + 1e-9 for a, b in zip(finishes, finishes[1:]))


class TestRenderingProperties:
    @given(time=st.floats(min_value=0.0, max_value=1e6))
    @settings(max_examples=100, deadline=None)
    def test_next_vsync_is_aligned_and_not_earlier(self, time):
        vsync = next_vsync_ms(time)
        assert vsync >= time - 1e-6
        ticks = vsync / VSYNC_PERIOD_MS
        assert abs(ticks - round(ticks)) < 1e-6
        assert vsync - time < VSYNC_PERIOD_MS + 1e-6

    @given(cpu_time=st.floats(min_value=0.0, max_value=5000.0), start=st.floats(min_value=0.0, max_value=1e5))
    @settings(max_examples=60, deadline=None)
    # A ready time sitting *inside* the snap-down band of tick 0: display
    # legitimately lands 4e-9 ms before ready (found by hypothesis).
    @example(cpu_time=0.0, start=4.0295519735528635e-09)
    def test_frame_latency_at_least_cpu_time(self, cpu_time, start):
        ready = start + cpu_time
        display = next_vsync_ms(ready)
        assert display - start >= cpu_time - 1e-6
        # next_vsync_ms forgives float noise of up to 1e-9 *ticks* (it snaps
        # a ready time that is within noise above a tick down to that tick),
        # so the idle wait may be negative by at most a tick-relative epsilon.
        assert display - ready >= -VSYNC_PERIOD_MS * 1e-9 - 1e-12


class TestPowerProperties:
    @given(st.sampled_from(SYSTEM.configurations()))
    @settings(max_examples=30, deadline=None)
    def test_active_power_always_exceeds_idle(self, config):
        assert POWER.power_w(config) > 0
        assert POWER.power_w(config) > POWER.idle_w * 0.5
