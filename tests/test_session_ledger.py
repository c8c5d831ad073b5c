"""Every replayed session's ledger reconciles.

Over the engine-golden grid (every scheme x thermal {none,
``cramped_chassis``} x faults {none, ``chaos``, ``rail_brownout``}, on its
four traces), each session must satisfy:

* outcomes never overlap on the single execution resource:
  ``start[i] >= finish[i-1]``;
* a frame is displayed no earlier than it finishes;
* idle energy is exactly the non-busy time at idle power:
  ``max(0, duration - sum(finish - start) - wasted_time) * idle_w``.

The golden fixture pins the numbers; this pins what they must add up to.
"""

from __future__ import annotations

import math

import pytest

from repro.runtime.simulator import KNOWN_SCHEMES, SimulationSetup
from test_engine_golden import FAULT_PRESETS, THERMAL_MODELS, replay_cells

CELLS = [
    f"{scheme}/{thermal or 'none'}/{faults or 'none'}"
    for thermal in THERMAL_MODELS
    for faults in FAULT_PRESETS
    for scheme in KNOWN_SCHEMES
]


@pytest.mark.parametrize("cell", CELLS)
def test_session_ledger_reconciles(cell):
    idle_w = SimulationSetup().power_table.idle_w
    for session in replay_cells()[cell]:
        outcomes = session.outcomes
        assert outcomes, cell
        for previous, outcome in zip(outcomes, outcomes[1:]):
            assert outcome.start_ms >= previous.finish_ms, (cell, outcome.index)
        for outcome in outcomes:
            assert outcome.display_ms >= outcome.finish_ms, (cell, outcome.index)
        busy_ms = math.fsum(o.finish_ms - o.start_ms for o in outcomes)
        idle_ms = max(0.0, session.duration_ms - busy_ms - session.wasted_time_ms)
        assert math.isclose(session.idle_energy_mj, idle_ms * idle_w, rel_tol=1e-12), cell
