"""The ``repro lint`` rule engine: AST walking and inline suppressions.

Every headline artefact in this reproduction rests on invariants that are
easy to break with one careless line — a wall-clock call in a payload
module, an unguarded RNG draw in a fault seam, a plain-float accumulator
in a merge path, a non-atomic artefact write.  The dynamic tests catch the
violations someone anticipated; this engine rejects whole *classes* of
them statically, at lint time, with nothing but stdlib :mod:`ast`.

The engine walks every ``*.py`` file under a root (the ``repro`` package
by default), builds one :class:`FileContext` per file — source, AST,
parent map, import map — and runs every registered :class:`Rule` whose
path filter matches, collecting :class:`Finding`\\ s.  One escape hatch
keeps the gate honest rather than annoying: an inline suppression,
``# repro: allow[RULE-ID] — <reason>`` on the offending line (or the line
directly above), silences that rule there.  The reason is mandatory: a
suppression without one is itself a finding (``LINT-SUPPRESS``), and so is
a suppression that no longer suppresses anything — stale exemptions must
be deleted, not accumulated.  There is no baseline file: every finding is
fixed or justified where it stands.

Findings are deterministic and sorted (path, line, column, rule), so two
runs over the same tree produce byte-identical reports — the linter holds
itself to the repo's own reproducibility bar.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

#: ``# repro: allow[RULE-ID] — <reason>`` (em-dash, en-dash, or ``-``).
_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*allow\[([A-Za-z0-9_-]+)\]\s*(?:[—–-]+\s*(\S.*?))?\s*$"
)

#: Rule id reserved for problems with the lint machinery itself
#: (unparseable files, malformed or stale suppressions).  Deliberately not
#: suppressible: the escape hatches must stay auditable.
META_RULE = "LINT-SUPPRESS"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str  # posix path relative to the lint root
    line: int
    col: int
    rule: str
    message: str

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class _Suppression:
    """One parsed ``# repro: allow[...]`` comment."""

    rule: str
    line: int
    reason: str | None
    used: bool = False


class ImportMap:
    """What the file's import statements bind each local name to.

    Two maps: ``modules`` (``np`` -> ``numpy``, ``random`` -> ``random``)
    and ``members`` (``fsum`` -> ``("math", "fsum")``).  Star imports are
    ignored — the linter prefers a missed resolution (silence) over a
    guessed one (noise).
    """

    def __init__(self, tree: ast.AST) -> None:
        self.modules: dict[str, str] = {}
        self.members: dict[str, tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
                    if alias.asname:
                        self.modules[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.members[alias.asname or alias.name] = (node.module, alias.name)


class FileContext:
    """Everything a rule needs to inspect one file."""

    def __init__(self, root: Path, path: Path, source: str | None = None) -> None:
        self.root = Path(root)
        self.path = Path(path)
        self.relpath = self.path.relative_to(self.root).as_posix()
        self.source = self.path.read_text(encoding="utf-8") if source is None else source
        self.lines = self.source.splitlines()
        self.tree: ast.Module | None
        self.parse_error: SyntaxError | None = None
        try:
            self.tree = ast.parse(self.source, filename=str(self.path))
        except SyntaxError as exc:
            self.tree = None
            self.parse_error = exc
            self.imports = None
            self._parents: dict[ast.AST, ast.AST] = {}
            return
        self.imports = ImportMap(self.tree)
        self._parents = {
            child: parent
            for parent in ast.walk(self.tree)
            for child in ast.iter_child_nodes(parent)
        }

    # -- tree navigation --------------------------------------------------------

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Parents of ``node``, innermost first, up to the module."""
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def enclosing_function(
        self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def enclosing_class(self, node: ast.AST) -> ast.ClassDef | None:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, ast.ClassDef):
                return ancestor
        return None

    # -- name resolution --------------------------------------------------------

    def resolve_call(self, node: ast.Call) -> str | None:
        """Dotted name a call resolves to, via the file's imports.

        ``time.time()`` -> ``"time.time"``; ``np.random.rand()`` ->
        ``"numpy.random.rand"``; ``open(...)`` -> ``"open"``; a method on
        an arbitrary object -> ``None``.
        """
        func = node.func
        if isinstance(func, ast.Name):
            if self.imports is not None and func.id in self.imports.members:
                module, name = self.imports.members[func.id]
                return f"{module}.{name}"
            return func.id  # builtin (or local) bare name
        parts: list[str] = []
        while isinstance(func, ast.Attribute):
            parts.append(func.attr)
            func = func.value
        if not isinstance(func, ast.Name):
            return None
        parts.reverse()
        if self.imports is not None and func.id in self.imports.modules:
            return ".".join([self.imports.modules[func.id], *parts])
        if self.imports is not None and func.id in self.imports.members:
            module, name = self.imports.members[func.id]
            return ".".join([module, name, *parts])
        return None

    # -- findings ---------------------------------------------------------------

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=self.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
        )


@dataclass(frozen=True)
class Rule:
    """One named check: a path filter plus a per-file checker."""

    id: str
    summary: str
    check: Callable[[FileContext], Iterable[Finding]]
    applies: Callable[[str], bool] = lambda relpath: True


@dataclass
class LintReport:
    """The outcome of one engine run."""

    findings: list[Finding]  # inline suppressions applied
    n_files: int
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_payload(self) -> dict:
        """JSON report schema (``repro lint --format json`` / ``--out``)."""
        return {
            "n_files": self.n_files,
            "n_findings": len(self.findings),
            "suppressed": self.suppressed,
            "findings": [finding.to_dict() for finding in self.findings],
        }


def _parse_suppressions(lines: Sequence[str]) -> list[_Suppression]:
    suppressions: list[_Suppression] = []
    for lineno, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        if match.group(1) == "RULE-ID":
            # The literal placeholder only ever appears in documentation
            # *describing* the syntax (docstrings, help text, this file);
            # a real suppression always names a concrete rule.
            continue
        suppressions.append(
            _Suppression(rule=match.group(1), line=lineno, reason=match.group(2))
        )
    return suppressions


class LintEngine:
    """Walks a source root and applies every registered rule."""

    def __init__(self, root: Path | str, rules: Sequence[Rule] | None = None) -> None:
        self.root = Path(root)
        if rules is None:
            from repro.lint import DEFAULT_RULES

            rules = DEFAULT_RULES
        self.rules = list(rules)
        self._last_suppressed = 0
        ids = [rule.id for rule in self.rules]
        duplicates = {rule_id for rule_id in ids if ids.count(rule_id) > 1}
        if duplicates:
            raise ValueError(f"duplicate rule id(s): {', '.join(sorted(duplicates))}")

    def files(self) -> list[Path]:
        """Every ``*.py`` under the root, in deterministic sorted order."""
        return sorted(
            path
            for path in self.root.rglob("*.py")
            if "__pycache__" not in path.parts
        )

    def lint_file(self, path: Path, source: str | None = None) -> list[Finding]:
        """All findings for one file, with inline suppressions applied."""
        ctx = FileContext(self.root, path, source=source)
        if ctx.parse_error is not None:
            return [
                Finding(
                    path=ctx.relpath,
                    line=ctx.parse_error.lineno or 1,
                    col=(ctx.parse_error.offset or 0) + 1,
                    rule=META_RULE,
                    message=f"file does not parse: {ctx.parse_error.msg}",
                )
            ]
        raw: list[Finding] = []
        for rule in self.rules:
            if rule.applies(ctx.relpath):
                raw.extend(rule.check(ctx))

        suppressions = _parse_suppressions(ctx.lines)
        by_anchor: dict[tuple[str, int], _Suppression] = {}
        for suppression in suppressions:
            # A suppression covers its own line and the line directly
            # below it (comment-above style); first one wins per anchor.
            for anchor_line in (suppression.line, suppression.line + 1):
                by_anchor.setdefault((suppression.rule, anchor_line), suppression)

        kept: list[Finding] = []
        for finding in raw:
            suppression = by_anchor.get((finding.rule, finding.line))
            if suppression is None or finding.rule == META_RULE:
                kept.append(finding)
            else:
                suppression.used = True
        self._last_suppressed = len(raw) - len(kept)

        for suppression in suppressions:
            if suppression.rule == META_RULE:
                kept.append(
                    Finding(
                        path=ctx.relpath,
                        line=suppression.line,
                        col=1,
                        rule=META_RULE,
                        message=f"{META_RULE} cannot be suppressed",
                    )
                )
                continue
            if suppression.used and not suppression.reason:
                kept.append(
                    Finding(
                        path=ctx.relpath,
                        line=suppression.line,
                        col=1,
                        rule=META_RULE,
                        message=(
                            f"suppression of {suppression.rule} has no reason; "
                            "write '# repro: allow[RULE-ID] — <why this is safe>'"
                        ),
                    )
                )
            elif not suppression.used:
                kept.append(
                    Finding(
                        path=ctx.relpath,
                        line=suppression.line,
                        col=1,
                        rule=META_RULE,
                        message=(
                            f"suppression of {suppression.rule} matches no finding; "
                            "delete the stale '# repro: allow' comment"
                        ),
                    )
                )
        return sorted(kept)

    def run(self) -> LintReport:
        """Lint the whole tree."""
        findings: list[Finding] = []
        suppressed = 0
        files = self.files()
        for path in files:
            findings.extend(self.lint_file(path))
            suppressed += self._last_suppressed
        findings.sort()
        return LintReport(findings=findings, n_files=len(files), suppressed=suppressed)
