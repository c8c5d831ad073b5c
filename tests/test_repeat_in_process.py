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
    # each served document carries the view memo its clones share.
    sizes["repro.traces.session_state._DOCUMENTS[*].views"] = sum(
        len(dom._views or ()) for dom, _ in session_state._DOCUMENTS.values()
    )
    return sizes


def run_matrix():
    return ScenarioRunner(jobs=1, train_traces_per_app=1).run(SPECS)


def test_second_run_adds_no_module_level_entries():
    first = run_matrix()
    before = module_state_sizes()
    second = run_matrix()
    after = module_state_sizes()
    grown = {name: (before.get(name, 0), size) for name, size in after.items() if size > before.get(name, 0)}
    assert grown == {}
    assert before["repro.traces.session_state._DOCUMENTS[*].views"] > 0
    assert [r.to_dict() for r in second] == [r.to_dict() for r in first]
