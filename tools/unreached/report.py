"""List the ``repro`` functions that no traced process entered.

Usage::

    python tools/unreached/report.py SRC_REPRO CALLS_DIR

``SRC_REPRO`` is the ``src/repro`` directory that was traced and
``CALLS_DIR`` holds the ``calls-<pid>.txt`` files that ``sitecustomize.py``
wrote.  Every ``*.py`` file under ``SRC_REPRO`` is compiled, and its code
objects are found by walking ``co_consts``; module bodies, comprehensions,
generator expressions, lambdas and class bodies are skipped.  A function is unreached
when its ``(file, co_firstlineno)`` appears in no calls file.  Its length
counts from its ``def`` line to its last line.  The last line printed reads
``N of M functions unreached, L lines``.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from pathlib import Path
from types import CodeType
from typing import Iterator, NamedTuple

_SKIPPED = frozenset({"<module>", "<lambda>", "<genexpr>", "<listcomp>", "<setcomp>", "<dictcomp>"})


class Function(NamedTuple):
    path: str
    first_line: int
    qualname: str
    lines: int


def _code_objects(code: CodeType) -> Iterator[CodeType]:
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield const
            yield from _code_objects(const)


def _def_spans(tree: ast.AST) -> dict[int, int]:
    """``co_firstlineno`` -> lines from the ``def`` line to the last line.

    A decorated function's code object starts at its first decorator.
    """
    spans = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            spans[first] = node.end_lineno - node.lineno + 1
    return spans


def functions(src: Path) -> list[Function]:
    """Every function compiled from ``src/**/*.py``, in file and line order."""
    found = []
    for path in sorted(src.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        name = os.path.realpath(path)
        spans = _def_spans(ast.parse(source, filename=name))
        for code in _code_objects(compile(source, name, "exec")):
            if code.co_name in _SKIPPED or code.co_firstlineno not in spans:
                continue  # not a function: a comprehension, a lambda or a class body
            qualname = getattr(code, "co_qualname", code.co_name)
            found.append(Function(name, code.co_firstlineno, qualname, spans[code.co_firstlineno]))
    return sorted(found)


def entered(calls_dir: Path) -> set[tuple[str, int]]:
    """The ``(file, first line)`` pairs recorded by every traced process."""
    seen = set()
    for path in calls_dir.glob("calls-*.txt"):
        for row in path.read_text(encoding="utf-8").splitlines():
            name, line = row.rsplit("\t", 1)
            seen.add((name, int(line)))
    return seen


def report(src: Path, calls_dir: Path, out=sys.stdout) -> list[Function]:
    """Print the unreached functions and the summary line; return them."""
    every = functions(src)
    seen = entered(calls_dir)
    unreached = [f for f in every if (f.path, f.first_line) not in seen]
    root = os.path.realpath(src.parent)
    for f in unreached:
        print(f"{os.path.relpath(f.path, root)}:{f.first_line}\t{f.qualname}\t{f.lines}", file=out)
    total = sum(f.lines for f in unreached)
    print(f"{len(unreached)} of {len(every)} functions unreached, {total} lines", file=out)
    return unreached


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, help="the traced src/repro directory")
    parser.add_argument("calls", type=Path, help="directory of calls-<pid>.txt files")
    args = parser.parse_args(argv)
    report(args.src, args.calls)
    return 0


if __name__ == "__main__":
    sys.exit(main())
