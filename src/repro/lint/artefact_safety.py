"""Artefact-safety rules: atomic JSON writes, journal appends via helpers.

The resumability story (ROADMAP "Ongoing invariants") depends on two I/O
disciplines:

* ``ART-ATOMIC`` — a JSON artefact must never be observable half-written.
  Any function that both serialises JSON (``json.dump``/``dumps``) and
  writes a file (``open(..., "w")`` / ``Path.write_text``) must do the
  full atomic dance — fsync the temp file, then ``os.replace`` into place
  — or, far better, route through :func:`repro.utils.write_json_atomic`,
  the one audited implementation.  A bare ``open``+``dump`` can leave a
  truncated ``results/*.json`` after a crash or power loss, which
  ``load_results`` will then reject and a resume cannot repair.
* ``ART-JOURNAL`` — append-mode writes are how checkpoints reach disk,
  and getting them crash-safe (one write and one fsync per record,
  torn-tail truncation on resume) is subtle enough that it lives in one
  audited place: the journal classes of :mod:`repro.scenarios.checkpoint`.
  An append-mode open outside a ``*Journal`` class is a hand-rolled
  journal and is flagged, in all three spellings: builtin ``open(path,
  "a")`` (and ``io.open``), a method ``.open("a")`` such as
  ``Path.open``, and ``os.open`` with ``O_APPEND`` in its flags.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileContext, Rule

_JSON_CALLS = {"json.dump", "json.dumps"}
_OPEN_CALLS = {"open", "io.open"}


def _call_mode(node: ast.Call, position: int = 1) -> str | None:
    """The literal mode string of an ``open`` call, if statically visible.

    ``position`` is the mode's positional index: 1 for ``open(path, mode)``,
    0 for a method such as ``Path.open(mode)``.
    """
    mode: ast.expr | None = None
    if len(node.args) > position:
        mode = node.args[position]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


def _scopes(ctx: FileContext) -> list[ast.AST]:
    """Module plus every function — the units atomicity is judged over."""
    return [ctx.tree] + [
        node
        for node in ast.walk(ctx.tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _direct_nodes(ctx: FileContext, scope: ast.AST) -> Iterator[ast.AST]:
    """Nodes whose nearest enclosing function is ``scope`` itself."""
    scope_func = scope if not isinstance(scope, ast.Module) else None
    for node in ast.walk(scope):
        if ctx.enclosing_function(node) is scope_func:
            yield node


def _check_atomic(ctx: FileContext) -> Iterator:
    for scope in _scopes(ctx):
        json_write = False
        writes: list[ast.AST] = []
        replaced = False
        fsynced = False
        for node in _direct_nodes(ctx, scope):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve_call(node)
            if resolved in _JSON_CALLS:
                json_write = True
            elif resolved == "os.replace":
                replaced = True
            elif resolved == "os.fsync":
                fsynced = True
            elif resolved in _OPEN_CALLS:
                mode = _call_mode(node)
                if mode is not None and mode.startswith("w"):
                    writes.append(node)
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "write_text"
            ):
                writes.append(node)
        if json_write and writes and not (replaced and fsynced):
            missing = (
                "os.replace and os.fsync"
                if not replaced and not fsynced
                else ("os.fsync before the rename" if not fsynced else "os.replace")
            )
            for write in writes:
                yield ctx.finding(
                    "ART-ATOMIC",
                    write,
                    "non-atomic JSON artefact write (missing "
                    f"{missing}); a crash here leaves a truncated file — "
                    "route it through repro.utils.write_json_atomic",
                )


def _names_o_append(node: ast.Call) -> bool:
    """Whether an ``os.open`` call's flags name ``O_APPEND``."""
    flags = [keyword.value for keyword in node.keywords if keyword.arg == "flags"]
    flags.extend(node.args[1:2])
    return any(
        (isinstance(part, ast.Attribute) and part.attr == "O_APPEND")
        or (isinstance(part, ast.Name) and part.id == "O_APPEND")
        for flag in flags
        for part in ast.walk(flag)
    )


def _opens_for_append(ctx: FileContext, node: ast.Call) -> bool:
    """Whether ``node`` opens a file for appending, in any of three spellings."""
    resolved = ctx.resolve_call(node)
    if resolved == "os.open":
        return _names_o_append(node)
    if resolved in _OPEN_CALLS:
        mode = _call_mode(node)
    elif resolved is None and isinstance(node.func, ast.Attribute) and node.func.attr == "open":
        # A method on an object the linter cannot resolve (``Path.open``).
        mode = _call_mode(node, position=0)
    else:
        return False
    return mode is not None and mode.startswith("a")


def _check_journal(ctx: FileContext) -> Iterator:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call) or not _opens_for_append(ctx, node):
            continue
        enclosing = ctx.enclosing_class(node)
        if enclosing is not None and "Journal" in enclosing.name:
            continue
        yield ctx.finding(
            "ART-JOURNAL",
            node,
            "append-mode write outside a *Journal helper; checkpoints must "
            "go through MatrixJournal/ShardJournal (per-record fsync, "
            "torn-tail truncation on resume)",
        )


RULES = [
    Rule(
        id="ART-ATOMIC",
        summary="JSON artefact writes are atomic (fsync + os.replace)",
        check=_check_atomic,
    ),
    Rule(
        id="ART-JOURNAL",
        summary="journal appends go through the audited journal helpers",
        check=_check_journal,
    ),
]
