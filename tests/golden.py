"""Shared harness for the golden-artefact tests.

Each ``test_*_golden.py`` replays a fixed-seed run, compares its JSON
payload exactly against a committed fixture under ``tests/fixtures/`` and,
run as a script with ``--regenerate``, rewrites that fixture.  This module
holds what they share:

* :func:`assert_matches_golden` — the exact comparison, failing with a
  preview of the first drifted leaves;
* :func:`drift_report` — how far a regenerated payload moved from the
  fixture: per field path (list indices folded), how many values changed,
  the largest change in ulps and in relative terms, and how many hashes
  changed.  ``--regenerate`` prints it before writing, so a regenerating
  commit can quote it;
* :func:`regenerate_main` — the ``--regenerate`` command line.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import struct
from collections.abc import Callable
from pathlib import Path

_INDEX = re.compile(r"\[\d+\]")


def describe_drift(expected, actual, path: str = "$") -> list[str]:
    """Human-oriented drift summary: every differing leaf, with its path, in
    a deterministic order (dict keys sorted)."""
    drifts: list[str] = []
    if type(expected) is not type(actual):
        return [f"{path}: type {type(expected).__name__} != {type(actual).__name__}"]
    if isinstance(expected, dict):
        for key in sorted(expected.keys() | actual.keys()):
            if key not in expected:
                drifts.append(f"{path}.{key}: unexpected key")
            elif key not in actual:
                drifts.append(f"{path}.{key}: missing key")
            else:
                drifts.extend(describe_drift(expected[key], actual[key], f"{path}.{key}"))
    elif isinstance(expected, list):
        if len(expected) != len(actual):
            drifts.append(f"{path}: length {len(expected)} != {len(actual)}")
        for index, (a, b) in enumerate(zip(expected, actual)):
            drifts.extend(describe_drift(a, b, f"{path}[{index}]"))
    elif expected != actual:
        drifts.append(f"{path}: {expected!r} != {actual!r}")
    return drifts


def assert_matches_golden(golden_path: Path, actual: dict, script: str) -> None:
    """Fail unless ``actual`` equals the fixture exactly; ``script`` is the
    test module that regenerates it."""
    expected = json.loads(golden_path.read_text())
    if actual != expected:
        drifts = describe_drift(expected, actual)
        preview = "\n  ".join(drifts[:20])
        raise AssertionError(
            f"{len(drifts)} value(s) drifted from {golden_path.name}.\n"
            "If this change is intentional, regenerate with:\n"
            f"  PYTHONPATH=src python tests/{script} --regenerate\n"
            f"First drifts:\n  {preview}"
        )


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _ordered_bits(value: float) -> int:
    """The float's bit pattern as an integer that orders like the float, so
    the distance between two of them counts the doubles in between."""
    bits = struct.unpack("<q", struct.pack("<d", value))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def ulps_between(a: float, b: float) -> int:
    """How many representable doubles apart ``a`` and ``b`` are."""
    return abs(_ordered_bits(float(a)) - _ordered_bits(float(b)))


def relative_change(a: float, b: float) -> float:
    """``|a - b|`` relative to the larger magnitude (0 when both are 0)."""
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def _changed_leaves(expected, actual, path: str = "$"):
    """Yield ``(path, expected, actual)`` for every leaf that differs, in
    :func:`describe_drift`'s order; a structural change is one leaf whose
    values are the two mismatched subtrees (or ``None`` for a missing side)."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(expected.keys() | actual.keys()):
            yield from _changed_leaves(expected.get(key), actual.get(key), f"{path}.{key}")
    elif isinstance(expected, list) and isinstance(actual, list) and len(expected) == len(actual):
        for index, (a, b) in enumerate(zip(expected, actual)):
            yield from _changed_leaves(a, b, f"{path}[{index}]")
    elif expected != actual or type(expected) is not type(actual):
        yield path, expected, actual


def drift_report(expected: dict, actual: dict, name: str = "fixture") -> list[str]:
    """Per folded field path, how far ``actual`` moved from ``expected``.

    Paths fold list indices (``$.cells.x[3].y`` -> ``$.cells.x[].y``).  A
    numeric path reports its largest change in ulps and relative terms; a
    path ending in ``sha256`` counts hashes; any other change is listed as
    changed.  The first line totals the values, paths and hashes.
    """
    rows: dict[str, dict] = {}
    for path, old, new in _changed_leaves(expected, actual):
        row = rows.setdefault(
            _INDEX.sub("[]", path), {"changed": 0, "ulps": 0, "rel": 0.0, "numeric": True}
        )
        row["changed"] += 1
        if _is_number(old) and _is_number(new) and math.isfinite(old) and math.isfinite(new):
            row["ulps"] = max(row["ulps"], ulps_between(old, new))
            row["rel"] = max(row["rel"], relative_change(old, new))
        else:
            row["numeric"] = False
    values = sum(row["changed"] for row in rows.values())
    hashes = sum(row["changed"] for path, row in rows.items() if path.endswith("sha256"))
    lines = [
        f"{name}: {values} value(s) changed at {len(rows)} path(s), {hashes} hash(es) changed"
    ]
    width = max((len(path) for path in rows), default=0)
    for path, row in rows.items():
        if path.endswith("sha256"):
            detail = "hash"
        elif row["numeric"]:
            detail = f"max {row['ulps']} ulp, max rel {row['rel']:.3g}"
        else:
            detail = "non-numeric"
        lines.append(f"  {path:<{width}}  {row['changed']:>4} changed  {detail}")
    return lines


def regenerate_main(doc: str | None, golden_path: Path, replay: Callable[[], dict]) -> None:
    """The ``--regenerate`` command line shared by the golden tests: replay,
    print the :func:`drift_report` against the current fixture, then write
    the new one."""
    parser = argparse.ArgumentParser(description=doc)
    parser.add_argument(
        "--regenerate", action="store_true", help="rewrite the golden fixture"
    )
    args = parser.parse_args()
    if not args.regenerate:
        parser.error("nothing to do; pass --regenerate to rewrite the fixture")
    payload = replay()
    if golden_path.exists():
        expected = json.loads(golden_path.read_text())
        print("\n".join(drift_report(expected, payload, golden_path.name)))
    golden_path.parent.mkdir(parents=True, exist_ok=True)
    golden_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {golden_path}")
