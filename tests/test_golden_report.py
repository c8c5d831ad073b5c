"""The golden harness (``tests/golden.py``): drift preview and report."""

from __future__ import annotations

import json
import math
import string
import sys

import pytest

from golden import (
    assert_matches_golden,
    describe_drift,
    drift_report,
    regenerate_main,
    ulps_between,
)

EXPECTED = {
    "cells": {
        "A/none": [
            {"energy": 1.0, "n": 3, "outcomes_sha256": "aa", "label": "x"},
            {"energy": 2.0, "n": 3, "outcomes_sha256": "bb", "label": "x"},
        ],
        "B/none": [{"energy": 5.0, "n": 3, "outcomes_sha256": "cc", "label": "x"}],
    },
    "traces": [["cnn", 1]],
}


def actual_payload() -> dict:
    actual = json.loads(json.dumps(EXPECTED))
    first, second = actual["cells"]["A/none"]
    first["energy"] = math.nextafter(1.0, 2.0)  # 1 ulp
    first["outcomes_sha256"] = "ab"
    second["energy"] = math.nextafter(math.nextafter(2.0, 0.0), 0.0)  # 2 ulps
    second["outcomes_sha256"] = "bc"
    actual["cells"]["B/none"][0]["n"] = 4
    actual["cells"]["B/none"][0]["label"] = "y"
    return actual


class TestUlps:
    def test_neighbours_are_one_ulp_apart(self):
        assert ulps_between(1.0, math.nextafter(1.0, 2.0)) == 1
        assert ulps_between(1.0, 1.0) == 0

    def test_counts_across_zero(self):
        tiny = math.nextafter(0.0, 1.0)
        assert ulps_between(-tiny, tiny) == 2
        assert ulps_between(-0.0, 0.0) == 0


class TestDriftReport:
    def test_identical_payloads_report_nothing(self):
        assert drift_report(EXPECTED, json.loads(json.dumps(EXPECTED)), "G.json") == [
            "G.json: 0 value(s) changed at 0 path(s), 0 hash(es) changed"
        ]

    def test_hand_built_pair(self):
        assert drift_report(EXPECTED, actual_payload(), "G.json") == [
            "G.json: 6 value(s) changed at 4 path(s), 2 hash(es) changed",
            "  $.cells.A/none[].energy              2 changed  max 2 ulp, max rel 2.22e-16",
            "  $.cells.A/none[].outcomes_sha256     2 changed  hash",
            "  $.cells.B/none[].label               1 changed  non-numeric",
            "  $.cells.B/none[].n                   1 changed  max 2251799813685248 ulp, max rel 0.25",
        ]

    def test_structural_changes_are_counted(self):
        actual = json.loads(json.dumps(EXPECTED))
        del actual["cells"]["B/none"]
        actual["traces"].append(["google", 2])
        assert drift_report(EXPECTED, actual, "G.json") == [
            "G.json: 2 value(s) changed at 2 path(s), 0 hash(es) changed",
            "  $.cells.B/none     1 changed  non-numeric",
            "  $.traces           1 changed  non-numeric",
        ]


class TestDescribeDrift:
    def test_lists_every_drifted_leaf(self):
        assert describe_drift(EXPECTED, actual_payload()) == [
            f"$.cells.A/none[0].energy: 1.0 != {math.nextafter(1.0, 2.0)!r}",
            "$.cells.A/none[0].outcomes_sha256: 'aa' != 'ab'",
            f"$.cells.A/none[1].energy: 2.0 != {math.nextafter(math.nextafter(2.0, 0.0), 0.0)!r}",
            "$.cells.A/none[1].outcomes_sha256: 'bb' != 'bc'",
            "$.cells.B/none[0].label: 'x' != 'y'",
            "$.cells.B/none[0].n: 3 != 4",
        ]

    def test_order_is_sorted_whatever_the_hash_seed(self):
        keys = list(string.ascii_lowercase)
        expected = {key: 0 for key in reversed(keys)}
        actual = {key: 1 for key in keys}
        assert describe_drift(expected, actual) == [f"$.{key}: 0 != 1" for key in keys]

    def test_assert_matches_golden_names_the_regenerating_script(self, tmp_path):
        golden_path = tmp_path / "G.json"
        golden_path.write_text(json.dumps(EXPECTED))
        assert_matches_golden(golden_path, json.loads(json.dumps(EXPECTED)), "test_g.py")
        with pytest.raises(AssertionError, match=r"6 value\(s\) drifted from G.json") as info:
            assert_matches_golden(golden_path, actual_payload(), "test_g.py")
        assert "python tests/test_g.py --regenerate" in str(info.value)


class TestRegenerateMain:
    def test_prints_the_report_then_writes(self, tmp_path, monkeypatch, capsys):
        golden_path = tmp_path / "G.json"
        golden_path.write_text(json.dumps(EXPECTED))
        monkeypatch.setattr(sys, "argv", ["test_g.py", "--regenerate"])
        regenerate_main(None, golden_path, actual_payload)
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "G.json: 6 value(s) changed at 4 path(s), 2 hash(es) changed"
        assert out[-1] == f"wrote {golden_path}"
        assert json.loads(golden_path.read_text()) == actual_payload()

    def test_refuses_without_the_flag(self, tmp_path, monkeypatch):
        golden_path = tmp_path / "G.json"
        monkeypatch.setattr(sys, "argv", ["test_g.py"])
        with pytest.raises(SystemExit):
            regenerate_main(None, golden_path, actual_payload)
        assert not golden_path.exists()
