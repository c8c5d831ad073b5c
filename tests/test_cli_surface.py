"""The CLI's option surface, pinned.

Every leaf command of ``repro.cli._build_parser()`` is walked and each of
its options compared, by option strings, against a literal table: the
``dest``, default, ``choices``, ``nargs`` and type name.  A refactor of
how the parser is assembled (shared parent parsers, per-command handler
defaults) must leave this table unchanged; a deliberate change to the
surface edits it here, where the diff is easy to review.
"""

import argparse

import pytest

from repro.cli import _build_parser, main

#: command -> {option strings (or positional dest): (dest, default, choices, nargs, type)}
SURFACE = {
    "generate": {
        "--apps": (
            "apps",
            ["163", "msn", "slashdot", "youtube", "google", "amazon",
             "ebay", "sina", "espn", "bbc", "cnn", "twitter"],
            None,
            "+",
            None,
        ),
        "--traces": ("traces", 3, None, None, "_positive_int"),
        "--seed": ("seed", 0, None, None, "int"),
        "--out": ("out", None, None, None, None),
    },
    "train": {
        "--traces-per-app": ("traces_per_app", 6, None, None, "_positive_int"),
        "--eval-traces": ("eval_traces", 2, None, None, "_positive_int"),
        "--seed": ("seed", 0, None, None, "int"),
    },
    "evaluate": {
        "--apps": ("apps", ["cnn", "google", "ebay"], None, "+", None),
        "--traces": ("traces", 1, None, None, "_positive_int"),
        "--schemes": (
            "schemes",
            ["Interactive", "EBS", "PES", "Oracle"],
            ("Interactive", "Ondemand", "EBS", "PES", "Oracle"),
            "+",
            None,
        ),
        "--platform": ("platform", "exynos5410", ("exynos5410", "tegra_parker"), None, None),
        "--train-traces-per-app": ("train_traces_per_app", 6, None, None, "_positive_int"),
        "--seed": ("seed", 500000, None, None, "int"),
        "--jobs": ("jobs", 1, None, None, "_worker_count"),
    },
    "scenarios list": {
        "--matrix": ("matrix", None, None, None, None),
    },
    "scenarios run": {
        "--matrix": ("matrix", "default", None, None, None),
        "--scenario": ("scenario", None, None, "+", None),
        "--jobs": ("jobs", 1, None, None, "_worker_count"),
        "--train-traces-per-app": ("train_traces_per_app", 4, None, None, "_positive_int"),
        "--out": ("out", None, None, None, None),
        "--faults": ("faults", None, None, "+", None),
        "--resume": ("resume", False, None, 0, None),
    },
    "scenarios sweep": {
        "--platforms": (
            "platforms", ["exynos5410"], ("exynos5410", "tegra_parker"), "+", None
        ),
        "--big-cores": ("big_cores", None, None, "+", "_core_count_or_none"),
        "--little-cores": ("little_cores", None, None, "+", "_core_count_or_none"),
        "--perf-scales": ("perf_scales", None, None, "+", "_perf_scale_or_none"),
        "--thermal": (
            "thermal",
            None,
            ("none", "constant_1100", "cramped_chassis", "passive_phone"),
            "+",
            None,
        ),
        "--thermal-mode": ("thermal_mode", "static", ("static", "dynamic"), None, None),
        "--regimes": ("regimes", ["default"], None, "+", None),
        "--apps": ("apps", ["core"], None, "+", None),
        "--schemes": ("schemes", ["Interactive", "EBS"], None, "+", None),
        "--traces-per-app": ("traces_per_app", 1, None, None, "_positive_int"),
        "--seed": ("seed", 500000, None, None, "int"),
        "--name": ("name", "custom", None, None, None),
        "--jobs": ("jobs", 1, None, None, "_worker_count"),
        "--train-traces-per-app": ("train_traces_per_app", 4, None, None, "_positive_int"),
        "--out": ("out", None, None, None, None),
        "--faults": ("faults", None, None, "+", None),
        "--resume": ("resume", False, None, 0, None),
    },
    "scenarios compare": {
        "files": ("files", None, None, "+", None),
    },
    "platforms": {},
    "faults list": {},
    "faults search": {
        "--target": (
            "target",
            "pes_regression",
            ("pes_regression", "recovery_collapse", "throttle_inflation"),
            None,
            None,
        ),
        "--scenario": ("scenario", None, None, None, None),
        "--schemes": (
            "schemes", None, ("Interactive", "Ondemand", "EBS", "PES", "Oracle"), "+", None
        ),
        "--budget": ("budget", 0.6, None, None, "float"),
        "--budget-evals": ("budget_evals", 24, None, None, "_positive_int"),
        "--seed": ("seed", 0, None, None, "int"),
        "--out": ("out", None, None, None, None),
        "--resume": ("resume", False, None, 0, None),
    },
    "fleet sample": {
        "--fleet": ("fleet", "default", ("default", "smoke"), None, None),
        "--size": ("size", None, None, None, "_positive_int"),
        "--seed": ("seed", None, None, None, "int"),
        "--limit": ("limit", None, None, None, "_positive_int"),
    },
    "fleet run": {
        "--fleet": ("fleet", "default", ("default", "smoke"), None, None),
        "--size": ("size", None, None, None, "_positive_int"),
        "--seed": ("seed", None, None, None, "int"),
        "--jobs": ("jobs", 1, None, None, "_worker_count"),
        "--train-traces-per-app": ("train_traces_per_app", 4, None, None, "_positive_int"),
        "--out": ("out", None, None, None, None),
        "--resume": ("resume", False, None, 0, None),
    },
    "fleet report": {
        "file": ("file", None, None, None, None),
    },
    "bench": {
        "--results-dir": ("results_dir", None, None, None, None),
        "--jobs": ("jobs", 4, None, None, "_worker_count"),
        "--only": ("only", None, ("parallel", "faults"), "+", None),
        "--quick": ("quick", False, None, 0, None),
    },
    "lint": {
        "--format": ("format", "text", ("text", "json"), None, None),
        "--root": ("root", None, None, None, None),
        "--out": ("out", None, None, None, None),
    },
}


def _leaves(parser, path=()):
    subcommands = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subcommands:
        yield " ".join(path), parser
        return
    for name, child in subcommands[0].choices.items():
        yield from _leaves(child, path + (name,))


def _surface(parser: argparse.ArgumentParser) -> dict:
    return {
        " ".join(action.option_strings) or action.dest: (
            action.dest,
            action.default,
            None if action.choices is None else tuple(action.choices),
            action.nargs,
            getattr(action.type, "__name__", None),
        )
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
    }


LEAVES = dict(_leaves(_build_parser()))


def test_leaf_commands_are_pinned():
    assert sorted(LEAVES) == sorted(SURFACE)


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_options_match_the_pinned_surface(command):
    assert _surface(LEAVES[command]) == SURFACE[command]


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(command.split() + ["--help"])
    assert excinfo.value.code == 0
    assert "usage:" in capsys.readouterr().out
