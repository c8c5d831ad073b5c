"""Property-based tests (hypothesis) for the fault-injection subsystem.

Pins the three invariants the subsystem is built on, for *arbitrary* valid
specs rather than just the built-in presets:

* serialisation — every ``FaultSpec`` survives a real ``json.dumps`` /
  ``json.loads`` round trip losslessly (rates are floats, and JSON float
  repr round-trips exactly),
* the identity invariant — any zero-rate spec is ``is_null`` and a session
  replay under it opens no ``SessionFaultState``, which is what makes
  zero-rate and absent specs bit-identical by construction,
* stream-transform accounting — for any rates, the transformed trace is a
  valid trace whose event count reconciles exactly with the ledger
  (kept = original - dropped + duplicated), every per-category count is
  bounded by the event count, and ``recovered <= injected``,
* burst-model semantics — the Gilbert-Elliott chain's long-run burst
  occupancy sits at its analytic stationary point, and a *null* burst
  model (zero enter rate or unit multiplier) attached to any spec leaves
  the injected fault stream bit-identical to the burst-free spec,
* battery-seam accounting — fault-attributed energy never exceeds the
  session's total energy, for arbitrary battery-fault magnitudes.
"""

from __future__ import annotations

import json
import random

from hypothesis import given, settings, strategies as st

from repro.faults import (
    BatteryFaults,
    BurstModel,
    DvfsFaults,
    EventStreamFaults,
    FaultSpec,
    PredictorFaults,
    SensorFaults,
)
from repro.faults.injector import SessionFaultState, _GilbertElliott
from repro.runtime.engine import _Replay
from repro.runtime.simulator import SimulationSetup, Simulator
from repro.traces.generator import TraceGenerator
from repro.webapp.apps import AppCatalog

# One real trace shared by every transform example (generation is the
# expensive part; the transform itself is microseconds).
_CATALOG = AppCatalog()
_TRACE = TraceGenerator(catalog=_CATALOG).generate("cnn", seed=7)

# -- strategies ---------------------------------------------------------------------

rates = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
names = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N"), whitelist_characters="_-."),
    min_size=1,
    max_size=16,
)

burst_models = st.builds(
    BurstModel,
    enter_rate=rates,
    exit_rate=rates,
    burst_multiplier=st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
)
optional_bursts = st.none() | burst_models

battery_faults = st.builds(
    BatteryFaults,
    sag_rate=rates,
    sag_power_scale=st.floats(min_value=1.0, max_value=2.0, allow_nan=False),
    brownout_rate=rates,
    brownout_dwell_ms=st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
    misreport_rate=rates,
    misreport_cap_mhz=st.integers(min_value=1, max_value=2_000),
    burst=optional_bursts,
)

fault_specs = st.builds(
    FaultSpec,
    name=names,
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    predictor=st.builds(PredictorFaults, flip_rate=rates, burst=optional_bursts),
    sensor=st.builds(
        SensorFaults,
        stuck_rate=rates,
        lag_readings=st.integers(min_value=0, max_value=5),
        noise_c=st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
        burst=optional_bursts,
    ),
    dvfs=st.builds(DvfsFaults, fail_rate=rates, burst=optional_bursts),
    events=st.builds(
        EventStreamFaults,
        drop_rate=rates,
        duplicate_rate=rates,
        jitter_rate=rates,
        jitter_ms=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        burst=optional_bursts,
    ),
    battery=battery_faults,
    description=st.text(max_size=30),
)


# -- properties ---------------------------------------------------------------------


@given(spec=fault_specs)
@settings(max_examples=60, deadline=None)
def test_fault_specs_round_trip_json_losslessly(spec):
    payload = json.loads(json.dumps(spec.to_dict()))
    rebuilt = FaultSpec.from_dict(payload)
    assert rebuilt == spec
    assert rebuilt.to_dict() == spec.to_dict()


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    name=names,
    jitter_ms=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_zero_rate_specs_map_to_no_injector(seed, name, jitter_ms):
    # jitter_ms without a jitter_rate can never move an arrival, so any
    # zero-rate spec — whatever its name, seed, or inert magnitudes — is
    # null and a replay under it opens no fault state at all.
    spec = FaultSpec(
        name=name, seed=seed, events=EventStreamFaults(jitter_ms=jitter_ms)
    )
    assert spec.is_null
    assert _Replay(SimulationSetup(faults=spec), _TRACE, "EBS").faults is None


@given(spec=fault_specs)
@settings(max_examples=60, deadline=None)
def test_stream_transform_accounting_reconciles(spec):
    session = SessionFaultState(spec, _TRACE, "EBS")
    transformed = session.transform(_TRACE)
    stats = session.finalize([])

    n = len(_TRACE.events)
    # Ledger reconciliation: every original event was kept or dropped, and
    # every extra event is a recorded duplicate.
    assert len(transformed.events) == n - stats.events_dropped + stats.events_duplicated
    assert 0 <= stats.events_dropped <= n
    assert 0 <= stats.events_duplicated <= n - stats.events_dropped
    assert 0 <= stats.events_jittered <= n - stats.events_dropped
    # Valid trace by construction: consecutive indices, sorted arrivals
    # (Trace.__init__ validates arrivals; indices checked explicitly).
    assert [e.index for e in transformed.events] == list(range(len(transformed.events)))
    # With no outcomes nothing can have recovered, and the global bound holds.
    assert stats.recovered == 0
    assert stats.recovered <= stats.injected


@given(spec=fault_specs)
@settings(max_examples=30, deadline=None)
def test_stream_transform_is_deterministic_per_identity(spec):
    first = SessionFaultState(spec, _TRACE, "EBS").transform(_TRACE)
    second = SessionFaultState(spec, _TRACE, "EBS").transform(_TRACE)
    assert first.events == second.events


# -- burst model --------------------------------------------------------------------


@given(burst=burst_models)
@settings(max_examples=60, deadline=None)
def test_burst_models_round_trip_json_losslessly(burst):
    spec = FaultSpec(predictor=PredictorFaults(flip_rate=0.5, burst=burst))
    payload = json.loads(json.dumps(spec.to_dict()))
    assert FaultSpec.from_dict(payload).predictor.burst == burst


@given(
    enter_rate=st.floats(min_value=0.05, max_value=0.5),
    exit_rate=st.floats(min_value=0.05, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_gilbert_elliott_occupancy_matches_stationary_point(enter_rate, exit_rate, seed):
    model = BurstModel(enter_rate=enter_rate, exit_rate=exit_rate, burst_multiplier=4.0)
    chain = _GilbertElliott(model)
    rng = random.Random(seed)
    steps = 5_000
    in_burst = sum(chain.step(rng) > 1.0 for _ in range(steps))
    # Rates >= 0.05 mix within ~20 steps, so 5k steps give an effective
    # sample a few hundred strong; 0.12 sits ~4 standard errors out.
    assert abs(in_burst / steps - model.occupancy) < 0.12


@given(
    spec=fault_specs,
    enter_zero=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_null_burst_models_leave_the_fault_stream_bit_identical(spec, enter_zero):
    # A chain that can never engage (zero enter rate) or never act (unit
    # multiplier) is not built at all, so attaching one to every category
    # must not consume a single RNG draw: the transformed stream matches
    # the burst-free spec event for event.
    null_burst = (
        BurstModel(enter_rate=0.0, exit_rate=0.5, burst_multiplier=6.0)
        if enter_zero
        else BurstModel(enter_rate=0.2, exit_rate=0.5, burst_multiplier=1.0)
    )
    import dataclasses

    def strip(category):
        return dataclasses.replace(category, burst=None)

    def nullify(category):
        return dataclasses.replace(category, burst=null_burst)

    bare = dataclasses.replace(
        spec,
        predictor=strip(spec.predictor),
        sensor=strip(spec.sensor),
        dvfs=strip(spec.dvfs),
        events=strip(spec.events),
        battery=strip(spec.battery),
    )
    nulled = dataclasses.replace(
        bare,
        predictor=nullify(bare.predictor),
        sensor=nullify(bare.sensor),
        dvfs=nullify(bare.dvfs),
        events=nullify(bare.events),
        battery=nullify(bare.battery),
    )
    session_a = SessionFaultState(bare, _TRACE, "EBS")
    session_b = SessionFaultState(nulled, _TRACE, "EBS")
    assert session_a.transform(_TRACE).events == session_b.transform(_TRACE).events
    # The per-event decision draws agree too, not just the stream shape.
    decisions_a = [
        (session_a.flip_prediction(i), session_a.dvfs_transition_fails()) for i in range(40)
    ]
    decisions_b = [
        (session_b.flip_prediction(i), session_b.dvfs_transition_fails()) for i in range(40)
    ]
    assert decisions_a == decisions_b


# -- battery seam -------------------------------------------------------------------


@given(battery=battery_faults)
@settings(max_examples=15, deadline=None)
def test_battery_fault_energy_never_exceeds_session_total(battery):
    # Only the sag *surcharge* (energy above nominal) is fault-attributed,
    # so the ledger must reconcile for any rates and magnitudes.
    spec = FaultSpec(name="prop-battery", seed=11, battery=battery)
    setup = SimulationSetup(faults=None if spec.is_null else spec)
    result = Simulator(setup, catalog=_CATALOG).run_scheme([_TRACE], "EBS")[0]
    if result.faults is None:
        return
    assert 0.0 <= result.faults.fault_energy_mj <= result.total_energy_mj
    assert result.faults.battery_recovered <= result.faults.battery_injected
