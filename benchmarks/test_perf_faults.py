"""Perf bench: wall-clock of the fault-injected matrix run.

Marked ``perf`` and deselected from the default pytest run; writes
``results/BENCH_faults.json`` (uploaded by the non-blocking CI perf job
with ``results/BENCH_parallel.json``).  The assertions guard the matrix
shape and the injection signature — every fault preset must actually
inject, and the fault-free control column must stay clean, otherwise the
bench is timing a no-op — while wall-clock itself is recorded, not
asserted.
"""

from __future__ import annotations

import pytest

from repro.bench import bench_faults, write_bench_json


@pytest.mark.perf
def test_perf_fault_injection():
    result = bench_faults(jobs=2)
    path = write_bench_json(result)
    assert path.exists()
    assert result.extra is not None
    assert result.extra["matrix"] == "fault_sweep"
    # fault presets + the fault-free control column
    assert result.extra["n_scenarios"] == 6
    assert result.ops_per_sec > 0

    injection = result.extra["injection"]
    # The control cell carries no fault telemetry at all...
    assert injection["exynos5410/default/core/nofault"] == {}
    # ...and every preset cell actually injects somewhere, recovering at
    # most what it injected.  Not every scheme is exposed to every seam —
    # predictor_flaky only bites schemes that consult the predictor (PES) —
    # so the injected>0 requirement is per cell, not per scheme.
    for scenario, per_scheme in injection.items():
        if scenario.endswith("/nofault"):
            continue
        assert per_scheme, f"{scenario} reported no fault telemetry"
        assert any(counts["injected"] > 0 for counts in per_scheme.values()), (
            f"{scenario} injected nothing on any scheme"
        )
        for counts in per_scheme.values():
            assert 0 <= counts["recovered"] <= counts["injected"]
