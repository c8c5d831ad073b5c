"""Repeating a run in one interpreter must not grow module-level state.

A long-lived process (a service, a notebook, a benchmark that repeats
passes in one interpreter) runs the same matrix again and again.  Memos
keyed by value fill on the first run and are only read after that; a memo
keyed on per-run objects grows on every run and slows each one down.
"""

import sys

from repro.scenarios import ScenarioRunner, ScenarioSpec
from repro.traces import session_state

SPECS = [
    ScenarioSpec(name="pes/default", apps=("cnn",), schemes=("Interactive", "EBS", "PES")),
    ScenarioSpec(name="ebs/low_battery", regime="low_battery", apps=("google",), schemes=("EBS",)),
    ScenarioSpec(
        name="ebs/hot", apps=("bbc",), schemes=("Interactive", "EBS"), thermal="cramped_chassis"
    ),
]


def module_state_sizes() -> dict[str, int]:
    """Size of every container and ``functools`` cache held by a ``repro`` module."""
    sizes: dict[str, int] = {}
    for module_name, module in list(sys.modules.items()):
        if module_name != "repro" and not module_name.startswith("repro."):
            continue
        for attribute, value in vars(module).items():
            name = f"{module_name}.{attribute}"
            if isinstance(value, (dict, list, set)):
                sizes[name] = len(value)
            elif callable(getattr(value, "cache_info", None)):
                sizes[name] = value.cache_info().currsize
    # Memos nested inside a module-level container are invisible to len():
    # each served document carries the view memo all its states share, and
    # each view its own memo of pure functions of its DOM state.
    views = [view for dom, _ in session_state._DOCUMENTS.values() for view in dom._views.values()]
    sizes["repro.traces.session_state._DOCUMENTS[*].views"] = len(views)
    sizes["repro.traces.session_state._DOCUMENTS[*].views[*].memo"] = sum(len(view.memo) for view in views)
    return sizes


def run_matrix():
    runner = ScenarioRunner(jobs=1, train_traces_per_app=1)
    return runner.run(SPECS), runner.train_learner().model


def test_second_run_adds_no_module_level_entries(monkeypatch):
    # Start from cold document and view memos, whatever ran before.
    monkeypatch.setattr(session_state, "_DOCUMENTS", {})
    first, first_model = run_matrix()
    before = module_state_sizes()
    second, second_model = run_matrix()
    after = module_state_sizes()
    grown = {name: (before.get(name, 0), size) for name, size in after.items() if size > before.get(name, 0)}
    assert grown == {}
    assert before["repro.traces.session_state._DOCUMENTS[*].views"] > 0
    assert before["repro.traces.session_state._DOCUMENTS[*].views[*].memo"] > 0
    assert [r.to_dict() for r in second] == [r.to_dict() for r in first]
    # Each run trains its own, equal model.  Rounds memoised on the views
    # are keyed by the model's value, so the second run reads the first
    # run's rounds, and its own step memo holds no input the first lacks.
    assert second_model is not first_model and second_model == first_model
    assert first_model._steps
    assert set(second_model._steps) <= set(first_model._steps)
