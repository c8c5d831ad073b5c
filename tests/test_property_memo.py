"""Differential tests (hypothesis) of the memoised predictor and user model.

Prediction rounds and the user model's ranking and tap targets are
memoised on the ``DomView``, and predictor steps on the softmax model.
The references here are test-side copies of the code before those memos:
every DOM query is a naive walk of a private deep copy (its flipped
displays written into the copied nodes), and nothing is looked up in any
memo.  The memoised paths must agree with them exactly, on served documents
and on toggled states of them, with and without DOM analysis, and for
learners that differ in a single field.
"""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.predictor.dom_analysis import DomAnalyzer
from repro.core.predictor.sequence_learner import EventSequenceLearner, PredictedEvent
from repro.traces import session_state
from repro.traces.generator import DEFAULT_BEHAVIOR_WEIGHTS, TraceGenerator, UserBehaviorModel
from repro.traces.session_state import FEATURE_WINDOW, SessionState
from repro.webapp.apps import AppCatalog
from repro.webapp.dom import DomTree
from repro.webapp.events import POINTER_EVENT_TYPES, EventType, Interaction, interaction_of
from repro.webapp.semantic_tree import SemanticTree

from naive_dom import materialised_root, naive_visible

CATALOG = AppCatalog()
GENERATOR = TraceGenerator(catalog=CATALOG)
TAP_EVENTS = (EventType.CLICK, EventType.TOUCHSTART, EventType.SUBMIT)
#: A second behaviour model: taps weigh more, so rankings differ from the default's.
TAP_HAPPY_WEIGHTS = {
    event_type: (bias + (1.5 if interaction_of(event_type) is Interaction.TAP else 0.0), w)
    for event_type, (bias, w) in DEFAULT_BEHAVIOR_WEIGHTS.items()
}


# -- the naive reference ------------------------------------------------------------------


def private_copy(state: SessionState) -> SessionState:
    """A deep copy that shares no node, view or container with ``state``."""
    dom = DomTree(materialised_root(state.dom), viewport=state.dom.viewport, page_height=state.dom._page_height)
    return SessionState(
        profile=state.profile,
        dom=dom,
        semantic=SemanticTree(dict(state.semantic.effects)),
        doc_index=state.doc_index,
        history=copy.copy(state.history),
        last_navigated=state.last_navigated,
    )


def reference_features(state: SessionState) -> np.ndarray:
    visible = naive_visible(state.dom)
    distance_to_click = float(FEATURE_WINDOW)
    for distance, observed in enumerate(reversed(state.history), start=1):
        if interaction_of(observed.event_type) is Interaction.TAP:
            distance_to_click = float(distance)
            break
    navigations = sum(1 for o in state.history if o.navigated)
    scrolls = sum(1 for o in state.history if interaction_of(o.event_type) is Interaction.MOVE)
    return np.array(
        [
            state.dom.clickable_region_fraction(visible),
            state.dom.visible_link_fraction(visible),
            distance_to_click / FEATURE_WINDOW,
            navigations / FEATURE_WINDOW,
            scrolls / FEATURE_WINDOW,
        ],
        dtype=float,
    )


def reference_available(state: SessionState) -> set:
    if state.last_navigated:
        return {EventType.LOAD}
    listeners = state.dom.visible_event_types(naive_visible(state.dom))
    return {e for e in listeners if e in POINTER_EVENT_TYPES}


def reference_target(state: SessionState, event_type: EventType):
    root = state.dom.root
    if event_type in (EventType.SCROLL, EventType.TOUCHMOVE, EventType.LOAD):
        return root
    candidates = [n for n in naive_visible(state.dom) if event_type in n.listeners and n is not root]
    if not candidates:
        return None
    with_effect = [n for n in candidates if state.semantic.has_effect(n.node_id, event_type)]
    non_navigating = [n for n in with_effect if not state.semantic.effect_of(n.node_id, event_type).navigates]
    if non_navigating:
        return non_navigating[0]
    plain = [n for n in candidates if n not in with_effect]
    if plain:
        return plain[0]
    return candidates[0]


def reference_predict_sequence(
    learner: EventSequenceLearner, state: SessionState, analyzer: DomAnalyzer, use_dom_analysis: bool
) -> list[PredictedEvent]:
    """``EventSequenceLearner.predict_sequence`` before any memo, on a private copy."""
    predictions = []
    cumulative = 1.0
    current = private_copy(state)
    dom = analyzer if use_dom_analysis else None
    for _ in range(learner.max_degree):
        features = reference_features(current)
        if learner.extractor.include_bias:
            features = np.concatenate([features, [1.0]])
        mask = None
        if dom is not None:
            lnes = reference_available(current)
            mask = np.zeros(dom.encoder.n_classes, dtype=bool) if lnes else np.ones(dom.encoder.n_classes, dtype=bool)
            for event_type in lnes:
                mask[dom.encoder.encode(event_type)] = True
        probabilities = learner.model.predict_proba(features, mask)[0]
        index = int(probabilities.argmax())
        event_type, confidence = learner.encoder.decode(index), float(probabilities[index])
        cumulative *= confidence
        if cumulative < learner.confidence_threshold:
            break
        target = reference_target(current, event_type) if dom is not None else None
        node_id = target.node_id if target is not None else current.dom.root.node_id
        predictions.append(PredictedEvent(event_type, confidence, cumulative, node_id))
        current.apply_event(event_type, node_id)
    return predictions


def reference_next_event_type(model: UserBehaviorModel, state: SessionState, rng) -> EventType:
    """``UserBehaviorModel.next_event_type`` before any memo."""
    candidates = reference_available(state)
    if not candidates:
        return EventType.SCROLL
    if candidates == {EventType.LOAD}:
        return EventType.LOAD
    scored = model.scores(reference_features(state), candidates)
    if not scored:
        ordered_candidates = sorted(candidates, key=lambda e: e.value)
        return ordered_candidates[int(rng.integers(len(ordered_candidates)))]
    ordered = sorted(scored.items(), key=lambda kv: (-kv[1], kv[0].value))
    most_likely = ordered[0][0]
    if rng.random() >= model.profile.behaviour_entropy or len(ordered) == 1:
        return most_likely
    alternatives = [event for event, _ in ordered[1:]]
    return alternatives[int(rng.integers(len(alternatives)))]


def reference_pick_target(state: SessionState, event_type: EventType, rng) -> tuple:
    """``TraceGenerator._pick_target`` before any memo, as ``(node_id, navigates)``."""
    root = state.dom.root
    if event_type in (EventType.SCROLL, EventType.TOUCHMOVE, EventType.LOAD):
        return root.node_id, False
    visible = naive_visible(state.dom)
    if event_type is EventType.SUBMIT:
        submits = [n for n in visible if EventType.SUBMIT in n.listeners]
        if not submits:
            return None, False
        node = submits[int(rng.integers(len(submits)))]
        return node.node_id, state.semantic.effect_of(node.node_id, event_type).navigates
    candidates = [n for n in visible if event_type in n.listeners and n is not root]
    if not candidates:
        return None, False
    navigating = [n for n in candidates if state.semantic.effect_of(n.node_id, event_type).navigates]
    in_page = [n for n in candidates if n not in navigating]
    if in_page and (not navigating or rng.random() >= GENERATOR.session.navigation_probability):
        pool = in_page
    else:
        pool = navigating or in_page
    node = pool[int(rng.integers(len(pool)))]
    return node.node_id, state.semantic.effect_of(node.node_id, event_type).navigates


# -- random sessions ---------------------------------------------------------------------


def act(state: SessionState, kind: str, index: int) -> None:
    """Apply one user action; a pending navigation always loads first."""
    root_id = state.dom.root.node_id
    ids = [n.node_id for n in state.dom.walk()]
    if state.last_navigated:
        state.apply_event(EventType.LOAD, root_id)
    elif kind == "scroll":
        state.apply_event(EventType.SCROLL, root_id)
    elif kind == "move":
        state.apply_event(EventType.TOUCHMOVE, root_id)
    elif kind == "toggle":
        buttons = [i for i in ids if "-menu-btn-" in i]
        if buttons:
            state.apply_event(EventType.CLICK, buttons[index % len(buttons)])
    elif kind == "navigate":
        links = [i for i in ids if "-nav-" in i]
        if links:
            state.apply_event(EventType.CLICK, links[index % len(links)])


actions = st.lists(
    st.tuples(
        st.sampled_from(["scroll", "move", "toggle", "toggle", "navigate"]),
        st.integers(min_value=0, max_value=7),
        st.booleans(),
    ),
    max_size=12,
)


@pytest.fixture(scope="module")
def learners(learner):
    """The session learner and a copy that differs only in its temperature."""
    hotter = copy.deepcopy(learner.model)
    hotter.temperature = learner.model.temperature * 2.5
    return learner, dataclasses.replace(learner, model=hotter)


class TestPredictorDifferential:
    @given(app=st.sampled_from(list(CATALOG.profiles)), steps=actions, order=st.permutations(range(4)))
    @settings(max_examples=30, deadline=None)
    def test_rounds_match_the_naive_loop(self, learners, app, steps, order):
        analyzer = DomAnalyzer(learners[0].encoder)
        variants = [(learner, flag) for learner in learners for flag in (True, False)]
        live = SessionState.fresh(CATALOG.get(app))
        states = [live]
        for kind, index, fork in steps:
            act(live, kind, index)
            if fork:
                # A roll-forward branch: it starts in the live state and
                # toggles a menu of its own.
                branch = live.clone()
                act(branch, "toggle", index + 1)
                states.append(branch)
            for state in (live, states[-1]):
                for position in order:
                    learner, flag = variants[position]
                    expected = reference_predict_sequence(learner, state, analyzer, flag)
                    # The first call may fill a memo, the second must read it.
                    assert learner.predict_sequence(state, analyzer, use_dom_analysis=flag) == expected
                    assert learner.predict_sequence(state, analyzer, use_dom_analysis=flag) == expected

    def test_changing_the_temperature_in_place_never_reads_a_stale_round(self, learner):
        model = copy.deepcopy(learner.model)
        tuned = dataclasses.replace(learner, model=model)
        analyzer = DomAnalyzer(tuned.encoder)
        state = SessionState.fresh(CATALOG.get("cnn"))
        state.apply_event(EventType.LOAD, state.dom.root.node_id)
        features = np.concatenate([reference_features(state), [1.0]])
        for temperature in (model.temperature, model.temperature * 3, model.temperature):
            model.temperature = temperature
            expected = reference_predict_sequence(tuned, state, analyzer, True)
            assert tuned.predict_sequence(state, analyzer) == expected
            probabilities = model.predict_proba(features)[0]
            expected_step = (tuned.encoder.decode(int(probabilities.argmax())), float(probabilities.max()))
            assert tuned.predict_next(state) == expected_step

    def test_a_pending_navigation_is_part_of_the_round_key(self, learner):
        # Replayed sessions never reach these two states (the window's last
        # entry implies the flag), but a hand-built state can.
        analyzer = DomAnalyzer(learner.encoder)
        idle = SessionState.fresh(CATALOG.get("cnn"))
        pending = idle.clone()
        pending.last_navigated = True
        for state in (idle, pending, idle):
            expected = reference_predict_sequence(learner, state, analyzer, True)
            assert learner.predict_sequence(state, analyzer) == expected

    def test_a_refit_never_reads_a_stale_step(self, learner, training_traces):
        from repro.core.predictor.training import PredictorTrainer

        model = copy.deepcopy(learner.model)
        state = SessionState.fresh(CATALOG.get("bbc"))
        features = np.concatenate([state.features(), [1.0]])
        row = tuple(features.tolist())
        before = model.predict_row(row)
        X, y = PredictorTrainer(catalog=CATALOG).build_dataset(training_traces)
        model.fit(X[: len(y) // 3], np.roll(y[: len(y) // 3], 1))
        after = model.predict_row(row)
        probabilities = model.predict_proba(features)[0]
        assert after == (int(probabilities.argmax()), float(probabilities.max()))
        assert after != before


    @given(app=st.sampled_from(list(CATALOG.profiles)), steps=actions)
    @settings(max_examples=30, deadline=None)
    def test_a_step_memo_hit_is_predict_step_bit_for_bit(self, learner, app, steps):
        # Rounds look steps up by the feature values and the LNES mask and
        # build no array on a hit; the step must be the one predict_step
        # computes from the array, down to the confidence's bits.
        model = copy.deepcopy(learner.model)
        model.freeze()
        analyzer = DomAnalyzer(learner.encoder)
        state = SessionState.fresh(CATALOG.get(app))
        rows = []
        for kind, index, _ in [("scroll", 0, False), *steps]:
            act(state, kind, index)
            row = learner.extractor.values(state)
            mask = analyzer.lnes_mask(state)
            # Counts and area fractions: finite and never -0.0, so equal
            # tuples are equal bytes and the value key names one input.
            assert all(math.isfinite(v) and math.copysign(1.0, v) == 1.0 for v in row)
            rows.append(row)
            reference = copy.deepcopy(learner.model)
            expected = reference.predict_step(np.array(row), mask)
            for _ in range(2):
                index_, confidence = model.predict_row(row, mask)
                assert (index_, confidence.hex()) == (expected[0], expected[1].hex())
        for a in rows:
            for b in rows:
                assert (a == b) == (np.array(a).tobytes() == np.array(b).tobytes())

    def test_fitted_weights_are_read_only(self, learner, training_traces):
        from repro.core.pes import PesScheduler
        from repro.core.predictor.training import PredictorTrainer
        from repro.runtime.simulator import SimulationSetup

        X, y = PredictorTrainer(catalog=CATALOG).build_dataset(training_traces)
        model = copy.deepcopy(learner.model).fit(X[:200], y[:200])
        with pytest.raises(ValueError):
            model.weights[0, 0] = 1.0
        # A learner that crossed a pipe comes back writeable; wiring it into
        # a scheduler freezes it again.
        shipped = pickle.loads(pickle.dumps(learner))
        assert shipped.model.weights.flags.writeable
        setup = SimulationSetup()
        PesScheduler.create(shipped, CATALOG.get("cnn"), setup.system, setup.power_table)
        with pytest.raises(ValueError):
            shipped.model.weights[0, 0] = 1.0


class TestUserModelDifferential:
    @given(
        app=st.sampled_from(list(CATALOG.profiles)),
        steps=actions,
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_draws_match_the_naive_model(self, app, steps, seed):
        profile = CATALOG.get(app)
        models = [UserBehaviorModel(profile), UserBehaviorModel(profile, TAP_HAPPY_WEIGHTS)]
        live = SessionState.fresh(profile)
        for kind, index, fork in steps:
            act(live, kind, index)
            state = live.clone() if fork else live
            for model in models:
                rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
                for _ in range(3):
                    assert model.next_event_type(state, rng) is reference_next_event_type(model, state, twin)
                assert rng.bit_generator.state == twin.bit_generator.state
            for event_type in TAP_EVENTS:
                rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
                for _ in range(3):
                    node, navigates = GENERATOR._pick_target(state, event_type, rng)
                    assert ((node and node.node_id), navigates) == reference_pick_target(state, event_type, twin)
                assert rng.bit_generator.state == twin.bit_generator.state
            seed += 1


def test_generation_does_not_depend_on_the_order_of_a_recipe_set(monkeypatch):
    # Each order starts from empty document and view memos, so the memos
    # fill in a different order; the traces must not notice.
    recipes = GENERATOR.recipes(["cnn", "bbc", "amazon", "ebay"], 2, base_seed=11)
    monkeypatch.setattr(session_state, "_DOCUMENTS", {})
    forwards = [recipes[i] for i in range(len(recipes))]
    monkeypatch.setattr(session_state, "_DOCUMENTS", {})
    backwards = [recipes[i] for i in reversed(range(len(recipes)))]
    assert forwards == backwards[::-1]
