"""Event tracer unit tests: ring-buffer wraparound, emission kinds,
and the validity of both exporters' output (JSONL and Chrome
``trace_event`` JSON)."""

import json
from types import SimpleNamespace

import pytest

from repro.observability import (
    KERNEL_TID,
    MICROSCOPE_TID,
    EventTracer,
    TraceEvent,
)


# --- ring mechanics --------------------------------------------------------

def test_ring_keeps_newest_events_on_wraparound():
    tracer = EventTracer(capacity=4)
    for i in range(10):
        tracer.instant(f"e{i}", ts=i)
    assert len(tracer) == 4
    assert tracer.total_emitted == 10
    assert tracer.dropped == 6
    # Oldest-first iteration across the wrap point.
    assert [e.name for e in tracer.events()] == ["e6", "e7", "e8", "e9"]
    assert [e.ts for e in tracer.events()] == [6, 7, 8, 9]


def test_ring_before_wrap_iterates_in_emission_order():
    tracer = EventTracer(capacity=8)
    for i in range(3):
        tracer.instant(f"e{i}", ts=i)
    assert len(tracer) == 3
    assert tracer.dropped == 0
    assert [e.name for e in tracer.events()] == ["e0", "e1", "e2"]


def test_exact_fill_does_not_drop():
    tracer = EventTracer(capacity=3)
    for i in range(3):
        tracer.instant(f"e{i}", ts=i)
    assert tracer.dropped == 0
    assert [e.name for e in tracer.events()] == ["e0", "e1", "e2"]


def test_clear_empties_ring_and_counters():
    tracer = EventTracer(capacity=2)
    tracer.instant("a", ts=0)
    tracer.clear()
    assert len(tracer) == 0
    assert tracer.total_emitted == 0
    assert list(tracer.events()) == []


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        EventTracer(capacity=0)


# --- emission --------------------------------------------------------------

def test_complete_slices_have_minimum_duration_one():
    tracer = EventTracer()
    tracer.complete("span", ts=5, dur=0)
    (event,) = tracer.events()
    assert event.dur == 1       # zero-width slices vanish in viewers


def test_event_args_are_attached():
    tracer = EventTracer()
    tracer.complete("page_fault", ts=10, dur=3, cat="kernel",
                    tid=KERNEL_TID, va=0x1000, claimed=True)
    (event,) = tracer.events()
    assert event.args == {"va": 0x1000, "claimed": True}
    assert event.tid == KERNEL_TID


# --- Chrome trace_event schema --------------------------------------------

def _chrome_payload(tracer):
    """Round-trip through JSON so we validate what a viewer parses."""
    return json.loads(json.dumps(tracer.chrome_trace()))


def test_chrome_trace_schema_validity():
    tracer = EventTracer()
    tracer.complete("replay:recipe", ts=100, dur=50, cat="replay",
                    tid=MICROSCOPE_TID, replay_no=1)
    tracer.instant("squash", ts=120, tid=0)
    tracer.counter("misses", ts=130, values={"l1d": 4})
    payload = _chrome_payload(tracer)

    assert set(payload) == {"traceEvents", "displayTimeUnit",
                            "otherData"}
    assert payload["otherData"]["timestamp_unit"] == "cycles"
    assert payload["otherData"]["dropped_events"] == 0

    events = payload["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    data = [e for e in events if e["ph"] != "M"]
    # One process_name record plus one thread_name per referenced tid.
    assert {e["name"] for e in meta} == {"process_name", "thread_name"}
    named_tids = {e["tid"] for e in meta if e["name"] == "thread_name"}
    assert named_tids == {0, MICROSCOPE_TID}
    by_tid = {e["tid"]: e["args"]["name"] for e in meta
              if e["name"] == "thread_name"}
    assert by_tid[MICROSCOPE_TID] == "microscope"
    assert by_tid[0] == "ctx0"

    for event in data:
        # Required trace_event fields, correctly typed.
        assert isinstance(event["name"], str)
        assert event["ph"] in ("X", "i", "C")
        assert isinstance(event["ts"], int)
        assert event["pid"] == 0
        if event["ph"] == "X":
            assert event["dur"] >= 1
        if event["ph"] == "i":
            assert event["s"] == "t"


def test_chrome_trace_reports_drops():
    tracer = EventTracer(capacity=2)
    for i in range(5):
        tracer.instant(f"e{i}", ts=i)
    payload = _chrome_payload(tracer)
    assert payload["otherData"]["dropped_events"] == 3


def test_export_chrome_trace_writes_loadable_json(tmp_path):
    tracer = EventTracer()
    tracer.complete("w", ts=0, dur=2)
    path = tmp_path / "trace.json"
    assert tracer.export_chrome_trace(path) == 1
    loaded = json.loads(path.read_text())
    assert any(e["name"] == "w" for e in loaded["traceEvents"])


# --- JSONL exporter --------------------------------------------------------

def test_export_jsonl_one_valid_object_per_line(tmp_path):
    tracer = EventTracer()
    tracer.instant("a", ts=1, tid=2, reason="x")
    tracer.complete("b", ts=2, dur=3)
    path = tmp_path / "events.jsonl"
    assert tracer.export_jsonl(path) == 2
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    first, second = (json.loads(line) for line in lines)
    assert first == {"name": "a", "cat": "event", "ph": "i", "ts": 1,
                     "tid": 2, "args": {"reason": "x"}}
    assert second["dur"] == 3


# --- core observer stages -------------------------------------------------

def _at(cycle):
    """A stand-in core whose clock reads *cycle*."""
    return SimpleNamespace(cycle=cycle)


class _Entry:
    """Minimal stand-in for a core pipeline entry."""

    def __init__(self, context_id, seq, index=0, fetch=0, issue=None,
                 complete=None, is_replay=False, fault=None):
        self.context_id = context_id
        self.seq = seq
        self.index = index
        self.fetch_cycle = fetch
        self.issue_cycle = issue
        self.complete_cycle = complete
        self.is_replay = is_replay
        self.fault = fault
        self.instr = f"instr#{seq}"


def test_retire_emits_fetch_to_retire_slice():
    tracer = EventTracer()
    entry = _Entry(context_id=1, seq=7, fetch=10, issue=12, complete=15,
                   is_replay=True)
    tracer.on_retire(_at(20), None, entry)
    (event,) = tracer.events()
    assert event.ts == 10 and event.dur == 10
    assert event.tid == 1
    assert event.cat == "pipeline"
    assert event.args["issue"] == 12
    assert event.args["complete"] == 15
    assert event.args["replay"] is True
    assert "faulted" not in event.args


def test_squash_emits_slices_with_reason():
    tracer = EventTracer()
    entries = [_Entry(0, seq, fetch=5) for seq in (1, 2)]
    tracer.on_squash(_at(9), None, entries, "page_fault", None)
    events = list(tracer.events())
    assert len(events) == 2
    assert all(e.cat == "squash" for e in events)
    assert all(e.args["reason"] == "page_fault" for e in events)


def test_only_a_completed_fault_marks_the_slice_faulted():
    """``faulted`` is set when the entry completed carrying a fault; a
    fault recorded by a walk the squash overtook never surfaced."""
    tracer = EventTracer()
    completed = _Entry(0, 1, fetch=5, issue=6, complete=8, fault="pf")
    overtaken = _Entry(0, 2, fetch=5, issue=7, fault="pf")
    tracer.on_squash(_at(9), None, [completed, overtaken], "x", None)
    first, second = tracer.events()
    assert first.args["faulted"] is True
    assert "faulted" not in second.args


def test_retire_without_fetch_is_ignored():
    """An entry fetched before the tracer was attached still gets its
    slice: its whole lifecycle is on the entry, not in the tracer."""
    tracer = EventTracer()
    tracer.on_retire(_at(20), None, _Entry(0, 1, fetch=3))
    (event,) = tracer.events()
    assert (event.ts, event.dur) == (3, 17)


def test_instructions_query_selects_context_and_index_in_fetch_order():
    tracer = EventTracer()
    tracer.instant("squash", ts=0, tid=0)
    tracer.on_retire(_at(30), None, _Entry(0, 9, index=2, fetch=20))
    tracer.on_squash(_at(25), None, [_Entry(0, 4, index=2, fetch=10),
                                     _Entry(0, 5, index=3, fetch=10)],
                     "mispredict", None)
    tracer.on_retire(_at(12), None, _Entry(1, 1, index=2, fetch=2))
    assert [e.args["seq"] for e in tracer.instructions(0)] == [4, 5, 9]
    assert [e.args["seq"] for e in tracer.instructions(0, index=2)] \
        == [4, 9]
    assert [e.tid for e in tracer.instructions(1)] == [1]


def test_entries_in_flight_at_a_snapshot_are_traced_after_restore():
    """A restored machine's in-flight entries carry their fetch cycles,
    so every instruction that retires or squashes after the restore
    gets its slice."""
    from repro.cpu.machine import Machine
    from repro.isa.program import ProgramBuilder
    from repro.snapshot import MachineSnapshot

    program = (ProgramBuilder().li("r1", 0).li("r2", 30)
               .fli("f1", 2.0).fli("f2", 3.0)
               .label("loop").fdiv("f2", "f2", "f1").nop()
               .addi("r1", "r1", 1).bne("r1", "r2", "loop")
               .halt().build())
    machine = Machine()
    tracer = EventTracer()
    machine.attach_tracer(tracer)
    machine.contexts[0].load_program(program)
    machine.run(150)
    assert len(machine.contexts[0].rob.entries) == 96
    snapshot = MachineSnapshot.take(machine)
    machine.run(100_000)
    snapshot.restore(machine)
    tracer.clear()
    stats = machine.contexts[0].stats
    before = stats.retired + stats.squashed
    machine.run(100_000)
    assert machine.contexts[0].finished()
    ended = stats.retired + stats.squashed - before
    assert ended > 96
    assert tracer.total_emitted == ended


def test_trace_event_repr_is_informative():
    event = TraceEvent("n", "c", "X", ts=1, dur=2, tid=3)
    assert "n" in repr(event) and "ts=1" in repr(event)
