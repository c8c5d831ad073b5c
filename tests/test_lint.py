"""Tests for the invariant linter (``repro.lint`` / ``python -m repro lint``).

Three layers of coverage:

* **Corpus** — a bad/good fixture pair per rule under
  ``tests/fixtures/lint_corpus/``: every bad file must produce exactly the
  expected (rule, line) findings, every good twin must be silent.
* **Machinery** — inline suppressions (reason required, stale flagged,
  meta-rule unsuppressable) and the CLI's exit codes and report formats.
* **The tree itself** — ``python -m repro lint`` must exit 0 on HEAD: the
  repo stays clean under its own gate.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.lint import DEFAULT_RULES, LintEngine, Rule

CORPUS = Path(__file__).parent / "fixtures" / "lint_corpus"
BAD = CORPUS / "bad"
GOOD = CORPUS / "good"

#: Exactly the findings each bad-corpus file must produce (rule, line).
BAD_EXPECTATIONS = {
    "runtime/det_wallclock.py": [
        ("DET-WALLCLOCK", 8),
        ("DET-WALLCLOCK", 9),
    ],
    "runtime/det_globalrng.py": [
        ("DET-GLOBALRNG", 11),  # random.random()
        ("DET-GLOBALRNG", 15),  # np.random.rand(n)
        ("DET-GLOBALRNG", 19),  # unseeded default_rng()
        ("DET-GLOBALRNG", 23),  # uuid.uuid4()
        ("DET-GLOBALRNG", 23),  # os.urandom(4)
    ],
    "runtime/det_idkey.py": [
        ("DET-IDKEY", 7),
        ("DET-IDKEY", 12),
        ("DET-IDKEY", 12),
        ("DET-IDKEY", 17),  # cache.get(key), key bound to (id(system), ...)
        ("DET-IDKEY", 19),  # cache[key] = ...
        ("DET-IDKEY", 24),  # memo.setdefault((id(system), cap_mhz), ...)
    ],
    "runtime/det_setiter.py": [
        ("DET-SETITER", 6),
        ("DET-SETITER", 12),
    ],
    "faults/injector.py": [
        ("RNG-GUARD", 11),  # comparison against the rate is not a guard
        ("RNG-GUARD", 14),  # draw precedes the guard that uses it
    ],
    "runtime/metrics.py": [
        ("SUM-EXACT", 10),  # += in add()
        ("SUM-EXACT", 14),  # += in merge()
        ("SUM-EXACT", 19),  # sum() over shard subtotals
    ],
    "scenarios/artefact.py": [
        ("ART-ATOMIC", 12),  # os.replace without fsync
        ("ART-ATOMIC", 18),  # bare open("w") + json.dump
    ],
    "scenarios/journal.py": [
        ("ART-JOURNAL", 9),  # builtin open(path, "a")
        ("ART-JOURNAL", 14),  # open(path, mode="a")
        ("ART-JOURNAL", 19),  # os.open with O_APPEND in its flags
        ("ART-JOURNAL", 25),  # Path.open("a")
        ("ART-JOURNAL", 27),  # Path(...).open(mode="ab")
    ],
    "runtime/suppressions.py": [
        ("LINT-SUPPRESS", 7),  # used suppression without a reason
        ("LINT-SUPPRESS", 11),  # stale suppression
        ("LINT-SUPPRESS", 16),  # meta rule cannot be suppressed
    ],
}


class TestBadCorpus:
    @pytest.mark.parametrize("relpath", sorted(BAD_EXPECTATIONS))
    def test_expected_findings(self, relpath):
        engine = LintEngine(BAD)
        findings = engine.lint_file(BAD / relpath)
        assert [(f.rule, f.line) for f in findings] == sorted(
            BAD_EXPECTATIONS[relpath], key=lambda pair: pair[1]
        )

    def test_run_collects_every_file(self):
        report = LintEngine(BAD).run()
        assert not report.ok
        expected = sum(len(pairs) for pairs in BAD_EXPECTATIONS.values())
        assert len(report.findings) == expected
        # The wallclock finding silenced in suppressions.py is counted.
        assert report.suppressed == 1


class TestScope:
    @pytest.mark.parametrize("package", ["schedulers", "core", "traces", "webapp", "hardware"])
    def test_determinism_rules_cover_model_packages(self, tmp_path, package):
        path = tmp_path / package / "memo.py"
        path.parent.mkdir()
        path.write_text("def lookup(cache, x):\n    key = (id(x), 1)\n    return cache.get(key)\n")
        findings = LintEngine(tmp_path).lint_file(path)
        assert [(f.rule, f.line) for f in findings] == [("DET-IDKEY", 3)]


class TestGoodCorpus:
    @pytest.mark.parametrize(
        "relpath",
        sorted(p.relative_to(GOOD).as_posix() for p in GOOD.rglob("*.py")),
    )
    def test_no_findings(self, relpath):
        engine = LintEngine(GOOD)
        assert engine.lint_file(GOOD / relpath) == []


class TestSuppressions:
    def _lint(self, tmp_path, source, relpath="runtime/mod.py"):
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        return LintEngine(tmp_path).lint_file(path)

    def test_same_line_suppression_with_reason_is_silent(self, tmp_path):
        findings = self._lint(
            tmp_path,
            "import time\n\n"
            "def f():\n"
            "    return time.time()  # repro: allow[DET-WALLCLOCK] — display only\n",
        )
        assert findings == []

    def test_line_above_suppression_is_silent(self, tmp_path):
        findings = self._lint(
            tmp_path,
            "import time\n\n"
            "def f():\n"
            "    # repro: allow[DET-WALLCLOCK] — display only\n"
            "    return time.time()\n",
        )
        assert findings == []

    def test_plain_ascii_dash_reason_accepted(self, tmp_path):
        findings = self._lint(
            tmp_path,
            "import time\n\n"
            "def f():\n"
            "    return time.time()  # repro: allow[DET-WALLCLOCK] - display only\n",
        )
        assert findings == []

    def test_missing_reason_is_a_finding(self, tmp_path):
        findings = self._lint(
            tmp_path,
            "import time\n\n"
            "def f():\n"
            "    return time.time()  # repro: allow[DET-WALLCLOCK]\n",
        )
        assert [f.rule for f in findings] == ["LINT-SUPPRESS"]
        assert "no reason" in findings[0].message

    def test_suppression_only_covers_its_own_rule(self, tmp_path):
        findings = self._lint(
            tmp_path,
            "import time\n\n"
            "def f():\n"
            "    return time.time()  # repro: allow[DET-GLOBALRNG] — wrong rule\n",
        )
        rules = sorted(f.rule for f in findings)
        # The wallclock finding survives and the mismatched allow is stale.
        assert rules == ["DET-WALLCLOCK", "LINT-SUPPRESS"]

    def test_syntax_error_reports_the_file(self, tmp_path):
        findings = self._lint(tmp_path, "def broken(:\n")
        assert [f.rule for f in findings] == ["LINT-SUPPRESS"]
        assert "does not parse" in findings[0].message

    def test_documentation_placeholder_is_not_a_suppression(self, tmp_path):
        findings = self._lint(
            tmp_path,
            '"""Write # repro: allow[RULE-ID] — <reason> to suppress."""\n',
        )
        assert findings == []


class TestEngine:
    def test_duplicate_rule_ids_rejected(self):
        rule = Rule(id="X", summary="x", check=lambda ctx: [])
        with pytest.raises(ValueError):
            LintEngine(BAD, rules=[rule, rule])

    def test_rule_ids_are_unique_and_documented(self):
        ids = [rule.id for rule in DEFAULT_RULES]
        assert len(ids) == len(set(ids))
        assert set(ids) == {
            "DET-WALLCLOCK",
            "DET-GLOBALRNG",
            "DET-IDKEY",
            "DET-SETITER",
            "RNG-GUARD",
            "SUM-EXACT",
            "ART-ATOMIC",
            "ART-JOURNAL",
        }

    def test_reports_are_deterministic(self):
        a = LintEngine(BAD).run().to_payload()
        b = LintEngine(BAD).run().to_payload()
        assert json.dumps(a) == json.dumps(b)


class TestTreeIsClean:
    def test_repro_package_has_zero_findings(self):
        """The gate the CI step enforces: HEAD lints clean."""
        report = LintEngine(Path(repro.__file__).parent).run()
        assert report.ok, "\n".join(f.render() for f in report.findings)


class TestCli:
    def test_lint_exits_zero_on_head(self, capsys):
        assert main(["lint"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_lint_fails_on_bad_corpus(self, capsys):
        assert main(["lint", "--root", str(BAD)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "RNG-GUARD" in out

    def test_json_format_and_out_report(self, tmp_path, capsys):
        out = tmp_path / "LINT_report.json"
        code = main(["lint", "--root", str(BAD), "--format", "json", "--out", str(out)])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload == json.loads(out.read_text())
        assert payload["n_findings"] == len(payload["findings"]) > 0
        assert not out.with_name(out.name + ".tmp").exists()

    def test_missing_root_is_a_usage_error(self, tmp_path, capsys):
        # A mistyped root used to lint zero files and pass the gate.
        assert main(["lint", "--root", str(tmp_path / "nonexistent")]) == 2
        captured = capsys.readouterr()
        assert "not a directory" in captured.err
        assert "ok:" not in captured.out

    def test_help_documents_the_gate(self, capsys):
        with pytest.raises(SystemExit):
            main(["lint", "--help"])
        out = capsys.readouterr().out
        for flag in ("--format", "--out", "--root"):
            assert flag in out
