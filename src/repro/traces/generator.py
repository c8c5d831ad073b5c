"""Synthetic user-session generation.

The generator replaces the Mosaic-recorded user traces of the paper.  Its
behaviour model is deliberately *feature-driven*: the probability of each
next event type is a multinomial logit over the same five features of
Table 1 that the PES predictor observes, sharpened so that the most likely
event is chosen with probability ``1 - behaviour_entropy`` (per app).  This
preserves the property the paper's prediction scheme rests on — event
sequences within a session are strongly temporally correlated and therefore
statistically inferable — while giving each application a controllable
level of difficulty that reproduces the accuracy spread of Fig. 8.

Timing follows the published session statistics: sessions of roughly 110 s
containing roughly 25 events (up to 70), with long think times after loads
and taps and short gaps inside scroll bursts.

Per event the generator draws from its RNG and looks the rest up: the
think-time log-medians are tabulated once per :class:`SessionConfig`, the
workload log-medians once per :class:`~repro.traces.workload.WorkloadModel`
(both with the ``np.log`` calls the draws used to make, so the bits are
the same), and the candidate events, the behaviour ranking and the tap and
submit target pools are memoised on the DOM state's view.  Every RNG call
is made as before, in the same order: the draw sequence defines the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from repro.hardware.dvfs import DvfsModel
from repro.traces.session_state import SessionState
from repro.traces.trace import Trace, TraceEvent, TraceSet
from repro.traces.workload import WorkloadModel, check_workload_params
from repro.webapp.apps import AppCatalog, AppProfile
from repro.webapp.dom import DomNode
from repro.webapp.events import EventType, Interaction, interaction_of

#: Ground-truth behaviour weights: score(event) = bias + w · features.
#: Feature order: clickable fraction, link fraction, distance-to-click,
#: navigations-in-window, scrolls-in-window (all normalised to [0, 1]).
#:
#: The weights encode the browsing cycle the paper's characterisation
#: describes: after a load or a tap the user scrolls (reads), scrolling
#: accumulates until a target is found (scrolls-in-window high, long since
#: the last click) and a tap follows, navigating taps lead to a load.  The
#: cycle is a deterministic function of the observable features, which is
#: what makes the sequence statistically inferable; per-application
#: ``behaviour_entropy`` injects deviations from it.
DEFAULT_BEHAVIOR_WEIGHTS: Mapping[EventType, tuple[float, tuple[float, float, float, float, float]]] = {
    EventType.SCROLL: (1.6, (0.0, 0.3, -0.6, 1.2, -3.0)),
    EventType.TOUCHMOVE: (0.3, (0.0, 0.2, -0.5, 0.6, -2.2)),
    EventType.CLICK: (-2.0, (2.2, 0.4, 1.5, -1.0, 2.0)),
    EventType.TOUCHSTART: (-2.6, (2.0, 0.3, 1.3, -0.8, 1.8)),
    EventType.SUBMIT: (-3.4, (1.0, 0.0, 0.8, 0.0, 1.5)),
    EventType.LOAD: (-4.0, (0.0, 0.0, 0.0, 3.0, 0.0)),
}


#: The :class:`SessionConfig` think-time medians, each the median of a log-normal draw.
_THINK_MEDIANS = (
    "think_after_load_ms",
    "think_tap_after_move_ms",
    "think_tap_after_tap_ms",
    "think_tap_ms",
    "move_burst_gap_ms",
    "move_start_gap_ms",
)


@dataclass(frozen=True)
class SessionConfig:
    """Session length and think-time parameters."""

    target_duration_ms: float = 110_000.0
    max_events: int = 70
    min_events: int = 10
    #: Median gap (ms) between a page load being *triggered* and the user's
    #: next input.  Users routinely interact before the load finishes
    #: rendering, which is the main source of event interference (the Fig. 2
    #: scenario: the load's execution eats into the following events' time
    #: budgets).
    think_after_load_ms: float = 2800.0
    #: Median think time (ms) before a tap that follows scrolling (the user
    #: spots a target mid-scroll) — short, the other interference source.
    think_tap_after_move_ms: float = 700.0
    #: Median think time (ms) before a tap that follows another tap (menu →
    #: menu item, field → submit).  Short enough that the second tap's budget
    #: is often squeezed by the first one's execution (Type II/III events).
    think_tap_after_tap_ms: float = 600.0
    #: Median think time (ms) before a tap in other contexts.
    think_tap_ms: float = 3500.0
    #: Median gap (ms) between consecutive move events inside a burst.
    move_burst_gap_ms: float = 250.0
    #: Median gap (ms) before the first move of a burst (reading time).
    move_start_gap_ms: float = 7000.0
    #: Log-normal sigma applied to every think-time draw.
    think_sigma: float = 0.55
    #: Minimum gap between two user inputs (ms).
    min_gap_ms: float = 25.0
    #: Probability that a tap lands on a navigating target (link) when
    #: non-navigating targets are also available; keeps the number of page
    #: loads per session realistic (a handful, not dozens).
    navigation_probability: float = 0.15

    def __post_init__(self) -> None:
        # Negated comparisons, so that NaN fails them too.
        if not self.target_duration_ms > 0:
            raise ValueError("SessionConfig.target_duration_ms must be positive")
        if not 0 < self.min_events <= self.max_events:
            raise ValueError("need 0 < min_events <= max_events")
        for name in (*_THINK_MEDIANS, "min_gap_ms"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"SessionConfig.{name} must be positive and finite")
        if not 0.0 <= self.think_sigma < math.inf:
            raise ValueError("SessionConfig.think_sigma must be non-negative and finite")
        if not 0.0 <= self.navigation_probability <= 1.0:
            raise ValueError("SessionConfig.navigation_probability must be in [0, 1]")

    def _think_median_ms(self, previous: Interaction | None, following: Interaction) -> float:
        """The median think time before a ``following`` event after a ``previous`` one."""
        if previous is Interaction.LOAD:
            return self.think_after_load_ms
        if following is Interaction.MOVE:
            return self.move_burst_gap_ms if previous is Interaction.MOVE else self.move_start_gap_ms
        if following is Interaction.TAP and previous is Interaction.MOVE:
            return self.think_tap_after_move_ms
        if following is Interaction.TAP and previous is Interaction.TAP:
            return self.think_tap_after_tap_ms
        return self.think_tap_ms

    @cached_property
    def think_log_medians(self) -> dict[tuple[EventType | None, EventType], float]:
        """``np.log`` of the median think time for every (previous, next) event type pair.

        Built on first use (``None`` stands for no previous event), so a
        think-time draw is a lookup and one ``lognormal`` call.
        """
        return {
            (previous, following): np.log(
                self._think_median_ms(
                    interaction_of(previous) if previous is not None else None,
                    interaction_of(following),
                )
            )
            for previous in (None, *EventType)
            for following in EventType
        }


class UserBehaviorModel:
    """Feature-driven multinomial behaviour model for one application."""

    def __init__(
        self,
        profile: AppProfile,
        weights: Mapping[EventType, tuple[float, tuple[float, ...]]] | None = None,
    ):
        self.profile = profile
        # Read-only, so that the memo key below keeps naming these weights.
        self.weights: Mapping[EventType, tuple[float, tuple[float, ...]]] = MappingProxyType(
            {event_type: (bias, tuple(w)) for event_type, (bias, w) in (weights or DEFAULT_BEHAVIOR_WEIGHTS).items()}
        )
        self._weights_key = frozenset(self.weights.items())

    def scores(self, features: np.ndarray, candidates: set[EventType]) -> dict[EventType, float]:
        """Raw behaviour scores for the candidate next events."""
        result: dict[EventType, float] = {}
        for event_type in candidates:
            if event_type not in self.weights:
                continue
            bias, w = self.weights[event_type]
            result[event_type] = bias + float(np.dot(np.asarray(w), features))
        return result

    def next_event_type(
        self, state: SessionState, rng: np.random.Generator
    ) -> EventType:
        """Draw the next event type given the session state.

        With probability ``1 - behaviour_entropy`` the user follows the
        feature-driven pattern (argmax score); otherwise they do something
        else among the currently possible events.
        """
        candidates = state.available_events()
        if not candidates:
            return EventType.SCROLL
        if candidates == {EventType.LOAD}:
            return EventType.LOAD

        scored, ordered = self.ranked_candidates(state, candidates)
        if not scored:
            return ordered[int(rng.integers(len(ordered)))]
        if rng.random() >= self.profile.behaviour_entropy or len(ordered) == 1:
            return ordered[0]
        alternatives = ordered[1:]
        return alternatives[int(rng.integers(len(alternatives)))]

    def ranked_candidates(
        self, state: SessionState, candidates: frozenset[EventType]
    ) -> tuple[bool, tuple[EventType, ...]]:
        """Whether any candidate has a behaviour score, and the candidates ranked.

        Scored candidates come by descending score, unscored ones (only when
        none has a score) by event name.  The ranking is a pure function of the
        view, the window counts, the weights and ``candidates``, so it is
        memoised on the view.
        """
        key = ("ranked_candidates", self._weights_key, candidates, state.window_counts())
        memo = state.view().memo
        ranked = memo.get(key)
        if ranked is None:
            scored = self.scores(state.features(), candidates)
            if scored:
                ordered = sorted(scored.items(), key=lambda kv: (-kv[1], kv[0].value))
                ranked = (True, tuple(event for event, _ in ordered))
            else:
                ranked = (False, tuple(sorted(candidates, key=lambda e: e.value)))
            memo[key] = ranked
        return ranked


def substream_seeds(base_seed: int, count: int) -> list[int]:
    """Derive ``count`` independent per-trace seeds from one base seed.

    Uses :class:`numpy.random.SeedSequence.spawn` so the derived streams are
    statistically independent, and folds each child into a plain integer
    seed so the trace it produces is reproducible from ``Trace.seed`` alone.
    Because the spawn happens up front (indexed by trace position, not by
    worker), parallel generation yields the same traces for any worker
    count.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    children = np.random.SeedSequence(base_seed).spawn(count)
    return [int(child.generate_state(1, np.uint64)[0]) for child in children]


@dataclass
class TraceGenerator:
    """Generates interaction sessions for the benchmark applications."""

    catalog: AppCatalog = field(default_factory=AppCatalog)
    session: SessionConfig = field(default_factory=SessionConfig)
    behavior_weights: Mapping[EventType, tuple[float, tuple[float, ...]]] | None = None
    #: Per-interaction workload overrides (session-regime presets); ``None``
    #: keeps :data:`repro.traces.workload.INTERACTION_WORKLOADS`.
    workload_params: Mapping | None = None

    def __post_init__(self) -> None:
        if self.workload_params is not None:
            check_workload_params(self.workload_params)

    # -- public API ------------------------------------------------------------

    def generate(self, app_name: str, *, seed: int, user_id: str | None = None) -> Trace:
        """Generate one session for ``app_name`` with a deterministic seed."""
        profile = self.catalog.get(app_name)
        rng = np.random.default_rng(seed)
        behaviour = UserBehaviorModel(profile, self.behavior_weights)
        workload = WorkloadModel(profile, params=self.workload_params)
        state = SessionState.fresh(profile)

        events: list[TraceEvent] = []
        time_ms = 0.0
        previous_type: EventType | None = None

        # The session starts with the initial page load.
        events.append(self._make_event(0, EventType.LOAD, f"{app_name}-body", 0.0, workload, rng, navigates=False))
        state.apply_event(EventType.LOAD, f"{app_name}-body")
        previous_type = EventType.LOAD

        while len(events) < self.session.max_events:
            next_type = behaviour.next_event_type(state, rng)
            node, navigates = self._pick_target(state, next_type, rng)
            if node is None:
                next_type = EventType.SCROLL
                node, navigates = self._pick_target(state, next_type, rng)
                if node is None:
                    break

            gap = self._think_time(previous_type, next_type, rng)
            time_ms += gap
            if time_ms > self.session.target_duration_ms and len(events) >= self.session.min_events:
                break

            events.append(
                self._make_event(len(events), next_type, node.node_id, time_ms, workload, rng, navigates=navigates)
            )
            state.apply_event(next_type, node.node_id, navigates=navigates)
            previous_type = next_type

        user = user_id or f"user-{seed}"
        return Trace(app_name=app_name, user_id=user, events=events, seed=seed)

    def generate_many(
        self,
        app_names: Sequence[str],
        traces_per_app: int,
        *,
        base_seed: int = 0,
        independent_streams: bool = False,
    ) -> TraceSet:
        """Generate ``traces_per_app`` sessions for each named application.

        With ``independent_streams`` the per-trace seeds are derived through
        :func:`substream_seeds` (``SeedSequence.spawn``) instead of the
        legacy ``base_seed + app_index * 1000 + t`` arithmetic; this is the
        seeding of scenario sweeps, large enough that the arithmetic seeds
        of adjacent apps would collide.
        """
        recipes = self.recipes(
            app_names, traces_per_app, base_seed=base_seed, independent_streams=independent_streams
        )
        return TraceSet(list(recipes))

    def recipes(
        self,
        app_names: Sequence[str],
        traces_per_app: int,
        *,
        base_seed: int = 0,
        independent_streams: bool = False,
    ) -> TraceRecipes:
        """The batch :meth:`generate_many` would generate, as lazy recipes."""
        if independent_streams:
            seeds = substream_seeds(base_seed, len(app_names) * traces_per_app)
        else:
            seeds = [
                base_seed + app_index * 1000 + t
                for app_index in range(len(app_names))
                for t in range(traces_per_app)
            ]
        apps = [app_name for app_name in app_names for _ in range(traces_per_app)]
        return TraceRecipes(self, tuple(zip(apps, seeds)))

    # -- internals ---------------------------------------------------------------

    def _make_event(
        self,
        index: int,
        event_type: EventType,
        node_id: str,
        arrival_ms: float,
        workload: WorkloadModel,
        rng: np.random.Generator,
        *,
        navigates: bool,
    ) -> TraceEvent:
        return TraceEvent(
            index=index,
            event_type=event_type,
            node_id=node_id,
            arrival_ms=arrival_ms,
            workload=workload.sample(event_type, rng),
            navigates=navigates,
        )

    def _pick_target(
        self, state: SessionState, event_type: EventType, rng: np.random.Generator
    ) -> tuple[DomNode | None, bool]:
        """Choose the DOM node an event lands on and whether it navigates."""
        root = state.dom.root
        if event_type in (EventType.SCROLL, EventType.TOUCHMOVE):
            return root, False
        if event_type is EventType.LOAD:
            return root, False

        if event_type is EventType.SUBMIT:
            memo = state.view().memo
            submits = memo.get("submit_targets")
            if submits is None:
                submits = memo["submit_targets"] = tuple(
                    n for n in state.visible_nodes() if EventType.SUBMIT in n.listeners
                )
            if not submits:
                return None, False
            node = submits[int(rng.integers(len(submits)))]
            return node, state.semantic.effect_of(node.node_id, event_type).navigates

        in_page, navigating = self._tap_targets(state, event_type)
        if not in_page and not navigating:
            return None, False
        if in_page and (not navigating or rng.random() >= self.session.navigation_probability):
            return in_page[int(rng.integers(len(in_page)))], False
        # Here ``navigating`` is never empty, and its targets all navigate.
        return navigating[int(rng.integers(len(navigating)))], True

    @staticmethod
    def _tap_targets(
        state: SessionState, event_type: EventType
    ) -> tuple[tuple[DomNode, ...], tuple[DomNode, ...]]:
        """The in-page and the navigating tap targets of ``event_type``, once per view.

        Tap targets are the visible nodes other than the root that carry the
        event type's listener, each in visible order; a target is navigating
        when its Semantic-Tree effect navigates.
        """
        memo = state.view().memo
        key = ("tap_targets", event_type)
        targets = memo.get(key)
        if targets is None:
            root = state.dom.root
            in_page: list[DomNode] = []
            navigating: list[DomNode] = []
            for node in state.visible_nodes():
                if event_type in node.listeners and node is not root:
                    if state.semantic.effect_of(node.node_id, event_type).navigates:
                        navigating.append(node)
                    else:
                        in_page.append(node)
            targets = memo[key] = (tuple(in_page), tuple(navigating))
        return targets

    def _think_time(
        self,
        previous_type: EventType | None,
        next_type: EventType,
        rng: np.random.Generator,
    ) -> float:
        """Gap (ms) between the previous event's arrival and the next one's."""
        cfg = self.session
        think = float(rng.lognormal(cfg.think_log_medians[previous_type, next_type], cfg.think_sigma))
        return max(cfg.min_gap_ms, think)


@dataclass(frozen=True)
class TraceRecipes(Sequence[Trace]):
    """A lazy, picklable sequence of traces: one ``(app, seed)`` recipe each.

    ``len()`` generates nothing and ``recipes[i]`` generates trace ``i``, so
    a sweep can ship a few ints to whichever process replays the trace
    instead of the trace itself.  Recipes compare by value (generator and
    specs), never by generating.
    """

    generator: TraceGenerator
    specs: tuple[tuple[str, int], ...]

    def __len__(self) -> int:
        return len(self.specs)

    def __getitem__(self, index: int) -> Trace:  # type: ignore[override]
        app_name, seed = self.specs[index]
        return self.generator.generate(app_name, seed=seed)
