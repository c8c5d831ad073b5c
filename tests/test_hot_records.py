"""The records a replay builds per event or per round are validated, immutable tuples.

``EventOutcome``, ``EventContext``, ``ObservedEvent``, ``DvfsModel``,
``TraceEvent``, ``Viewport``, ``ConfigOption``, ``EventSpec``,
``Assignment``, ``Schedule`` and ``PredictedEvent`` are built thousands of
times per replay, so each is a ``NamedTuple`` (or a ``namedtuple`` subclass
whose ``__new__`` validates or derives fields) rather than a frozen
dataclass.  These tests pin their contract: no field can be assigned, no
construction path (the constructor, ``_make``, ``_replace``, pickling,
copying) skips a check, ``ConfigOption.energy_mj`` is never stale, and no
instance carries a ``__dict__``.

The allocation guard replays two traces of different lengths with warm
memos and requires the count of dataclass instances under ``repro`` not to
grow with the number of events, so a new per-event dataclass fails it.
"""

from __future__ import annotations

import collections
import copy
import dataclasses
import math
import pickle
import struct
import sys

import pytest

from repro.core.optimizer.schedule import Assignment, EventSpec, Schedule
from repro.core.predictor.sequence_learner import PredictedEvent
from repro.hardware.acmp import AcmpConfig
from repro.hardware.dvfs import DvfsModel
from repro.hardware.platforms import exynos_5410
from repro.hardware.power import PowerModel
from repro.runtime.metrics import EventOutcome
from repro.schedulers.base import ConfigOption, EventContext
from repro.traces.session_state import ObservedEvent
from repro.traces.trace import TraceEvent
from repro.webapp.dom import Viewport
from repro.webapp.events import EventType

SYSTEM = exynos_5410()
POWER_TABLE = PowerModel().build_table(SYSTEM)
WORKLOAD = DvfsModel(12.5, 340.0)
EVENT = TraceEvent(3, EventType.CLICK, "cnn-menu-btn-0", 250.0, WORKLOAD, True)
OPTION = ConfigOption(AcmpConfig("A15", 1200), 0.1 + 0.2, 1.7)
SPEC = EventSpec("predicted-0-click", 10.0, 60.0, (OPTION,))
ASSIGNMENT = Assignment(SPEC, OPTION, 10.0, 10.0 + OPTION.latency_ms)

RECORDS = {
    "EventOutcome": EventOutcome(
        0, EventType.CLICK, 1.0, 2.0, 3.0, 20.0, 100.0, 5.0, "<A15>", True, False, 1.0
    ),
    "EventContext": EventContext(EVENT, 260.0, SYSTEM, POWER_TABLE, 10.0),
    "ObservedEvent": ObservedEvent(EventType.SCROLL, False),
    "DvfsModel": WORKLOAD,
    "TraceEvent": EVENT,
    "Viewport": Viewport(360.0, 640.0, 120.0),
    "ConfigOption": OPTION,
    "EventSpec": SPEC,
    "Assignment": ASSIGNMENT,
    "Schedule": Schedule((ASSIGNMENT,), True),
    "PredictedEvent": PredictedEvent(EventType.CLICK, 0.9, 0.81, "cnn-sec-0-el-0"),
}

#: Per record, field values its constructor, ``_make`` and ``_replace`` refuse.
INVALID = [
    ("TraceEvent", {"index": -1}),
    ("TraceEvent", {"arrival_ms": -0.5}),
    ("DvfsModel", {"tmem_ms": -1.0}),
    ("DvfsModel", {"ndep_mcycles": -1e-9}),
    ("DvfsModel", {"tmem_ms": math.nan}),
    ("DvfsModel", {"ndep_mcycles": math.nan}),
    ("PredictedEvent", {"confidence": 1.5}),
    ("PredictedEvent", {"confidence": -0.1}),
    ("PredictedEvent", {"cumulative_confidence": 1.1}),
    ("PredictedEvent", {"cumulative_confidence": -0.1}),
    ("EventSpec", {"options": ()}),
    ("EventSpec", {"deadline_ms": 9.0}),
    ("Viewport", {"width": 0.0}),
    ("Viewport", {"height": math.inf}),
    ("Viewport", {"scroll_y": -1.0}),
]


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestRecordContract:
    def test_is_a_tuple_without_an_instance_dict(self, name):
        record = RECORDS[name]
        assert isinstance(record, tuple)
        assert not hasattr(record, "__dict__")
        assert not dataclasses.is_dataclass(record)

    def test_fields_cannot_be_assigned(self, name):
        record = RECORDS[name]
        for field in type(record)._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_pickle_and_deepcopy_round_trip(self, name):
        record = RECORDS[name]
        for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
            assert type(twin) is type(record)
            assert twin == record

    def test_make_and_replace_keep_an_equal_record(self, name):
        record = RECORDS[name]
        assert type(record)._make(record) == record
        assert type(record._replace()) is type(record)
        assert record._replace() == record

    def test_repr_names_the_class(self, name):
        assert repr(RECORDS[name]).startswith(f"{name}(")


@pytest.mark.parametrize(("name", "changes"), INVALID, ids=lambda v: v if isinstance(v, str) else repr(v))
class TestEveryConstructionPathValidates:
    def test_constructor(self, name, changes):
        record = RECORDS[name]
        values = {**record._asdict(), **changes}
        with pytest.raises(ValueError):
            type(record)(**values)

    def test_replace(self, name, changes):
        with pytest.raises(ValueError):
            RECORDS[name]._replace(**changes)

    def test_make(self, name, changes):
        record = RECORDS[name]
        values = {**record._asdict(), **changes}
        with pytest.raises(ValueError):
            type(record)._make(values.values())


class TestConfigOptionEnergy:
    def test_energy_is_power_times_latency(self):
        assert bits(OPTION.energy_mj) == bits(1.7 * (0.1 + 0.2))

    def test_energy_keeps_its_bits_through_pickle_copy_and_make(self):
        for twin in (
            pickle.loads(pickle.dumps(OPTION)),
            copy.deepcopy(OPTION),
            ConfigOption._make(OPTION),
            ConfigOption._make(OPTION[:3]),
        ):
            assert bits(twin.energy_mj) == bits(OPTION.energy_mj)

    def test_pickle_passes_the_three_inputs(self):
        assert OPTION.__getnewargs__() == (OPTION.config, OPTION.latency_ms, OPTION.power_w)

    def test_replace_and_make_recompute_energy(self):
        slower = OPTION._replace(latency_ms=2.5)
        assert bits(slower.energy_mj) == bits(1.7 * 2.5)
        stale = ConfigOption._make((OPTION.config, 2.5, OPTION.power_w, OPTION.energy_mj))
        assert bits(stale.energy_mj) == bits(1.7 * 2.5)

    def test_energy_cannot_be_set(self):
        with pytest.raises(ValueError, match="derived"):
            OPTION._replace(energy_mj=0.0)
        with pytest.raises(TypeError):
            ConfigOption(OPTION.config, 1.0, 1.0, energy_mj=0.0)
        with pytest.raises(TypeError):
            ConfigOption._make((*OPTION, 0.0))


def dataclass_inits(monkeypatch) -> collections.Counter:
    """Count ``__init__`` calls of every dataclass defined under ``repro``."""
    counts: collections.Counter = collections.Counter()
    wrapped = set()
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for cls in list(vars(module).values()):
            if (
                isinstance(cls, type)
                and dataclasses.is_dataclass(cls)
                and cls.__module__.startswith("repro.")
                and "__init__" in vars(cls)
                and cls not in wrapped
            ):
                wrapped.add(cls)
                init = cls.__init__

                def counted(self, *args, _init=init, _name=cls.__qualname__, **kwargs):
                    counts[_name] += 1
                    _init(self, *args, **kwargs)

                monkeypatch.setattr(cls, "__init__", counted)
    assert wrapped, "no dataclass found under repro"
    return counts


class TestNoPerEventDataclasses:
    """A replay builds a fixed number of dataclass instances per session.

    Each trace is replayed once before counting, so every per-process memo
    (served documents, DOM views, predicted rounds and steps) is warm and
    what is left is what a replay builds for itself.
    """

    @pytest.mark.parametrize("scheme", ["PES", "EBS"])
    def test_count_does_not_grow_with_the_events(self, scheme, simulator, learner, sample_trace, monkeypatch):
        short = dataclasses.replace(sample_trace, events=sample_trace.events[:10])
        assert len(sample_trace) > 2 * len(short)
        for trace in (sample_trace, short):
            simulator.run_scheme([trace], scheme, learner=learner)
        counts = dataclass_inits(monkeypatch)
        per_trace = []
        for trace in (short, sample_trace):
            counts.clear()
            simulator.run_scheme([trace], scheme, learner=learner)
            per_trace.append(dict(counts))
        assert per_trace[0], "the counter saw no dataclass at all"
        assert per_trace[1] == per_trace[0]
