"""Determinism rules: no nondeterminism source may feed payload code.

Every artefact this repo writes (``SCENARIOS_*`` / ``FLEET_*`` /
``FAULT_SEARCH_*``) is promised to be a pure function of its spec —
byte-identical across ``--jobs``, resumes, and machines.  The modules
that produce those payloads (:data:`PAYLOAD_PACKAGES`: the models and
engines as well as the runners and writers) therefore must not consult
anything the spec does not determine:

* ``DET-WALLCLOCK`` — wall-clock and timer reads (``time.time``,
  ``datetime.now`` …).  Timestamps belong in filenames chosen by humans,
  never inside payloads.
* ``DET-GLOBALRNG`` — global-state or OS-entropy randomness:
  module-level ``random.*`` calls, ``np.random.*`` legacy global-state
  calls, unseeded ``np.random.default_rng()``, ``os.urandom``,
  ``uuid.uuid1``/``uuid4``, anything from ``secrets``.  All randomness
  must flow from an explicit seeded generator
  (:func:`repro.utils.stable_seed` -> ``random.Random`` /
  ``np.random.default_rng``).
* ``DET-IDKEY`` — ``id()`` used as a dict key, alone, in a tuple, or
  through a local name bound to either: ``id`` values change per
  process, so any iteration or serialisation keyed on them is
  run-dependent.
* ``DET-SETITER`` — direct iteration over ``set``/``frozenset`` values:
  set order depends on insertion history and hash seeds; wrap in
  ``sorted(...)`` before iterating anywhere the order can reach a
  payload.  (Membership tests are fine — only iteration is flagged.)
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileContext, Rule

#: Packages whose modules produce artefact payloads; the determinism pack
#: applies only here (bench/CLI code may legitimately read clocks).
PAYLOAD_PACKAGES: tuple[str, ...] = (
    "runtime/",
    "scenarios/",
    "fleet/",
    "faults/",
    "analysis/",
    "schedulers/",
    "core/",
    "traces/",
    "webapp/",
    "hardware/",
)


def in_payload_package(relpath: str) -> bool:
    return relpath.startswith(PAYLOAD_PACKAGES)


_WALLCLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.clock_gettime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: ``random`` module attributes that are fine: constructing an explicitly
#: seeded generator instance is the *sanctioned* way to get randomness.
_RANDOM_ALLOWED = {"random.Random"}

#: ``numpy.random`` attributes that construct seeded generators rather
#: than consuming the legacy global state.
_NP_RANDOM_ALLOWED = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}

_ENTROPY_CALLS = {"os.urandom", "uuid.uuid1", "uuid.uuid4"}


def _check_wallclock(ctx: FileContext) -> Iterator:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.resolve_call(node)
        if resolved in _WALLCLOCK_CALLS:
            yield ctx.finding(
                "DET-WALLCLOCK",
                node,
                f"{resolved}() in a payload-producing module; artefacts must be "
                "pure functions of their spec — never of when they ran",
            )


def _check_global_rng(ctx: FileContext) -> Iterator:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.resolve_call(node)
        if resolved is None:
            continue
        if resolved in _ENTROPY_CALLS or resolved.startswith("secrets."):
            yield ctx.finding(
                "DET-GLOBALRNG",
                node,
                f"{resolved}() draws OS entropy; derive seeds with "
                "repro.utils.stable_seed instead",
            )
        elif resolved.startswith("random.") and resolved not in _RANDOM_ALLOWED:
            yield ctx.finding(
                "DET-GLOBALRNG",
                node,
                f"module-level {resolved}() uses the process-global RNG stream; "
                "draw from an explicit random.Random(stable_seed(...)) instance",
            )
        elif resolved.startswith("numpy.random."):
            tail = resolved.rsplit(".", 1)[1]
            if tail == "default_rng" and not node.args and not node.keywords:
                yield ctx.finding(
                    "DET-GLOBALRNG",
                    node,
                    "numpy.random.default_rng() without a seed pulls OS entropy; "
                    "pass stable_seed(...)",
                )
            elif tail not in _NP_RANDOM_ALLOWED:
                yield ctx.finding(
                    "DET-GLOBALRNG",
                    node,
                    f"{resolved}() consumes numpy's global RNG state; use a "
                    "seeded numpy.random.default_rng(...) generator",
                )


def _holds_id(node: ast.AST) -> bool:
    """An ``id(...)`` call, or a tuple with one among its elements."""
    if isinstance(node, ast.Tuple):
        return any(_holds_id(element) for element in node.elts)
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "id"


def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """The nodes of ``scope``, leaving out the functions nested in it."""
    for node in ast.iter_child_nodes(scope):
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _scope_nodes(node)


def _check_id_keys(ctx: FileContext) -> Iterator:
    message = (
        "id()-keyed mapping: object ids differ per process, so anything "
        "iterating or serialising this mapping is run-dependent"
    )
    functions = (n for n in ast.walk(ctx.tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)))
    for scope in (ctx.tree, *functions):
        nodes = list(_scope_nodes(scope))
        # Local names bound to an id() key: ``key = (id(x), n); cache.get(key)``.
        bindings = (node for node in nodes if isinstance(node, ast.Assign) and _holds_id(node.value))
        id_names = {target.id for node in bindings for target in node.targets if isinstance(target, ast.Name)}
        for node in nodes:
            if isinstance(node, ast.Subscript):
                keys = [(node, node.slice)]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                keys = [(node, arg) for arg in node.args[:1] if node.func.attr in ("get", "setdefault")]
            elif isinstance(node, ast.Dict):
                keys = [(key, key) for key in node.keys if key is not None]
            elif isinstance(node, ast.DictComp):
                keys = [(node.key, node.key)]
            else:
                continue
            for anchor, key in keys:
                if _holds_id(key) or (isinstance(key, ast.Name) and key.id in id_names):
                    yield ctx.finding("DET-IDKEY", anchor, message)


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _check_set_iteration(ctx: FileContext) -> Iterator:
    message = (
        "iterating a set: element order is insertion/hash dependent; wrap "
        "in sorted(...) before the order can reach a payload"
    )
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.For, ast.AsyncFor)) and _is_set_expr(node.iter):
            yield ctx.finding("DET-SETITER", node.iter, message)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for generator in node.generators:
                if _is_set_expr(generator.iter):
                    yield ctx.finding("DET-SETITER", generator.iter, message)


RULES = [
    Rule(
        id="DET-WALLCLOCK",
        summary="no wall-clock/timer reads in payload-producing modules",
        check=_check_wallclock,
        applies=in_payload_package,
    ),
    Rule(
        id="DET-GLOBALRNG",
        summary="all randomness flows from explicit seeded generators",
        check=_check_global_rng,
        applies=in_payload_package,
    ),
    Rule(
        id="DET-IDKEY",
        summary="no id()-keyed mappings",
        check=_check_id_keys,
        applies=in_payload_package,
    ),
    Rule(
        id="DET-SETITER",
        summary="no direct iteration over set values",
        check=_check_set_iteration,
        applies=in_payload_package,
    ),
]
