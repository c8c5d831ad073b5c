"""Built-in scenario library and named matrices.

Two entry points:

* :data:`BUILTIN_SCENARIOS` — curated single scenarios, one per session
  regime plus a cross-platform check, runnable by name
  (``python -m repro scenarios run --scenario flash_crowd``).
* :data:`MATRICES` — named :class:`~repro.scenarios.spec.ScenarioMatrix`
  cross-products (``python -m repro scenarios run --matrix default``).

The ``default`` matrix is sized to finish in minutes on one core while
still covering both platforms and three qualitatively different regimes
(6 scenarios x 3 schemes); ``full`` sweeps every regime on both platforms
against seen *and* unseen app mixes for overnight breadth runs.

``platform_sweep`` and ``thermal`` sweep platform *parameters* instead of
named SoCs: core counts, little-cluster ``perf_scale``, and thermal
throttling curves (:mod:`repro.hardware.thermal`) expand into derived
systems via :class:`~repro.scenarios.sweep.PlatformSweep` — the same axes
``python -m repro scenarios sweep`` exposes ad hoc.
"""

from __future__ import annotations

from repro.faults import get_fault_preset
from repro.scenarios.spec import ScenarioMatrix, ScenarioSpec
from repro.scenarios.sweep import PlatformSweep


def _builtin_scenarios() -> dict[str, ScenarioSpec]:
    specs = [
        ScenarioSpec(
            name="baseline_seen",
            regime="default",
            apps="core",
            description="the paper's default sessions on the primary platform",
        ),
        ScenarioSpec(
            name="flash_crowd",
            regime="flash_crowd",
            apps="news",
            description="breaking-news burst: short think times, heavy taps",
        ),
        ScenarioSpec(
            name="background_tabs",
            regime="background_idle",
            apps="mixed",
            description="idle background tabs where idle energy dominates",
        ),
        ScenarioSpec(
            name="low_battery",
            regime="low_battery",
            apps="mixed",
            description="battery saver caps every cluster at 1.1 GHz",
        ),
        ScenarioSpec(
            name="marathon_day",
            regime="marathon",
            apps="mixed",
            description="long mixed multi-app browsing day",
        ),
        ScenarioSpec(
            name="tegra_baseline",
            platform="tegra_parker",
            regime="default",
            apps="core",
            description="default sessions on the TX2-class platform (Sec. 6.5)",
        ),
        ScenarioSpec(
            name="network_limited",
            regime="network_limited",
            apps="news",
            description="congested link: network time dominates event latency",
        ),
        ScenarioSpec(
            name="fg_bg_switching",
            regime="fg_bg_switching",
            apps="mixed",
            description="foreground bursts between long background lulls",
        ),
        ScenarioSpec(
            name="hot_chassis",
            regime="marathon",
            apps="core",
            thermal="cramped_chassis",
            description="marathon sessions in a cramped chassis: deep thermal throttle",
        ),
        ScenarioSpec(
            name="hot_chassis_live",
            regime="flash_crowd",
            apps="core",
            thermal="cramped_chassis",
            thermal_mode="dynamic",
            description="flash-crowd bursts heat a cramped chassis mid-session: "
            "per-event throttling with live heat-up/cool-down",
        ),
    ]
    return {spec.name: spec for spec in specs}


#: Curated single scenarios, keyed by name.
BUILTIN_SCENARIOS: dict[str, ScenarioSpec] = _builtin_scenarios()


def _builtin_matrices() -> dict[str, ScenarioMatrix]:
    return {
        "default": ScenarioMatrix(
            name="default",
            platforms=("exynos5410", "tegra_parker"),
            regimes=("default", "flash_crowd", "low_battery"),
            app_mixes=("core",),
            schemes=("Interactive", "EBS", "PES"),
            traces_per_app=1,
            description="both platforms x three regimes on the core app mix",
        ),
        "regimes": ScenarioMatrix(
            name="regimes",
            platforms=("exynos5410",),
            regimes=(
                "default",
                "flash_crowd",
                "background_idle",
                "low_battery",
                "marathon",
                "network_limited",
                "fg_bg_switching",
            ),
            app_mixes=("core",),
            schemes=("Interactive", "EBS", "PES"),
            traces_per_app=1,
            description="every session regime on the primary platform",
        ),
        "reactive": ScenarioMatrix(
            name="reactive",
            platforms=("exynos5410", "tegra_parker"),
            regimes=(
                "default",
                "flash_crowd",
                "background_idle",
                "low_battery",
                "marathon",
                "network_limited",
                "fg_bg_switching",
            ),
            app_mixes=("core",),
            schemes=("Interactive", "Ondemand", "EBS"),
            traces_per_app=1,
            description="training-free breadth sweep of the reactive baselines",
        ),
        "full": ScenarioMatrix(
            name="full",
            platforms=("exynos5410", "tegra_parker"),
            regimes=(
                "default",
                "flash_crowd",
                "background_idle",
                "low_battery",
                "marathon",
                "network_limited",
                "fg_bg_switching",
            ),
            app_mixes=("seen", "unseen"),
            schemes=("Interactive", "Ondemand", "EBS", "PES"),
            traces_per_app=2,
            description="the overnight breadth run: 28 scenarios, every scheme",
        ),
        "platform_sweep": ScenarioMatrix(
            name="platform_sweep",
            platform_sweep=PlatformSweep(
                platforms=("exynos5410",),
                big_core_counts=(None, 2),
                # Upward: a little cluster nearing big-core IPC starts
                # winning scheduler placements; downward sweeps are inert
                # for mixes the schedulers already keep on the big cluster.
                perf_scales=(None, 0.9),
                thermal_models=(None, "passive_phone", "cramped_chassis"),
            ),
            regimes=("default",),
            app_mixes=("core",),
            schemes=("Interactive", "EBS", "PES"),
            description="platform parameters as the axis: cores x IPC x thermal curves",
        ),
        "thermal": ScenarioMatrix(
            name="thermal",
            platform_sweep=PlatformSweep(
                platforms=("exynos5410",),
                thermal_models=(None, "passive_phone", "cramped_chassis"),
            ),
            regimes=("flash_crowd", "marathon"),
            app_mixes=("core",),
            schemes=("Interactive", "EBS"),
            description="throttle-dwell study: short bursts vs marathons per curve",
        ),
        # The per-event counterpart of the "thermal" matrix: the same curve x
        # regime grid, but throttled live inside the engines.  The comparison
        # is the headline result of dynamic mode — the static collapse
        # (flat-out dwell for the whole session) throttles marathons hardest,
        # while live dynamics show the opposite: ~50%-duty flash-crowd bursts
        # heat the package past its thresholds and low-duty marathons never do.
        # Resilience matrix: the same (scheme x trace) grid replayed under
        # each fault preset plus a fault-free control column.  The headline
        # read-out is ``scenario_faults_table`` — how much QoS and energy
        # each scheme gives up per fault family, and how often the injected
        # faults are absorbed (deadline still met / cap still right).
        "fault_sweep": ScenarioMatrix(
            name="fault_sweep",
            platforms=("exynos5410",),
            regimes=("default",),
            app_mixes=("core",),
            schemes=("Interactive", "EBS", "PES"),
            fault_specs=(
                None,
                get_fault_preset("predictor_flaky"),
                get_fault_preset("dvfs_flaky"),
                get_fault_preset("lossy_events"),
                get_fault_preset("rail_brownout"),
                get_fault_preset("chaos"),
            ),
            traces_per_app=1,
            description="fault presets x schemes: degradation and recovery under injected faults",
        ),
        "thermal_dynamic": ScenarioMatrix(
            name="thermal_dynamic",
            platform_sweep=PlatformSweep(
                platforms=("exynos5410",),
                thermal_models=(None, "passive_phone", "cramped_chassis"),
            ),
            regimes=("flash_crowd", "marathon"),
            app_mixes=("core",),
            schemes=("Interactive", "EBS"),
            thermal_mode="dynamic",
            description="per-event thermal dynamics: live mid-session throttling per curve",
        ),
    }


#: Named matrices, keyed by name.
MATRICES: dict[str, ScenarioMatrix] = _builtin_matrices()


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return BUILTIN_SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(BUILTIN_SCENARIOS))}"
        ) from None


def get_matrix(name: str) -> ScenarioMatrix:
    try:
        return MATRICES[name]
    except KeyError:
        raise KeyError(
            f"unknown matrix {name!r}; available: {', '.join(sorted(MATRICES))}"
        ) from None
