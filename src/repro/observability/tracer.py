"""Structured event tracing with ring-buffer backing.

:class:`EventTracer` is the opt-in, zero-cost-when-off observability
channel.  "Off" means *not attached*: the core calls only attached observers,
and the kernel and MicroScope emission sites are guarded by an
``if tracer is not None`` check, so an untraced run executes no
tracing code at all and its results are bit-identical to a traced
run — tracing only ever *reads* simulation state.

Events live in a fixed-capacity ring buffer (:class:`TraceEvent` is a
slotted record), so arbitrarily long runs trace in bounded memory:
once the ring wraps, the oldest events fall off.  Two exporters are
provided:

* :meth:`EventTracer.export_jsonl` — one JSON object per line, for
  ad-hoc ``jq``/pandas digestion;
* :meth:`EventTracer.export_chrome_trace` — the Chrome
  ``trace_event`` JSON format.  Load the file in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing`` and the replay
  windows appear as slices on the kernel/MicroScope tracks, with the
  victim's squash storms interleaved on its context track.

Timestamps are simulated cycles, exported through the trace format's
microsecond field — i.e. 1 "us" in the viewer is 1 cycle.

The tracer is also an observer (:mod:`repro.cpu.observer`: the core's
``on_retire``/``on_squash`` stages), recording every dynamic
instruction as a completed slice on its context's track, fetch to
retire or squash, read off the ``ROBEntry`` at its terminal
transition.  Attach it with
:meth:`repro.cpu.machine.Machine.attach_tracer`, which wires both the
core stages and the kernel/module emission sites at once.
:meth:`EventTracer.instructions` selects a context's slices (or one
static instruction's replay trail) and :func:`render_pipeline` draws
them as a text pipeline diagram::

    c0 #2   div r3, r1, r2               |F-I=================R|

which makes replay attacks *visible*: the victim's transmit
instructions appear, execute, and die squashed, replay after replay.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Optional, Sequence

#: Synthetic track ("thread") ids for non-context emitters.  Context
#: tracks use their context_id directly.
KERNEL_TID = 100
MICROSCOPE_TID = 101
#: Track for the sweep harness (per-attempt slices from
#: :meth:`repro.harness.resilience.SweepReport.emit_trace`; host-time
#: microseconds rather than cycles).
HARNESS_TID = 102

_TRACK_NAMES = {KERNEL_TID: "kernel", MICROSCOPE_TID: "microscope",
                HARNESS_TID: "harness"}

#: Chrome trace_event phases used by this tracer.
PH_COMPLETE = "X"
PH_INSTANT = "i"
PH_COUNTER = "C"

#: Categories of the per-instruction slices: retired, squashed.
_INSTRUCTION_CATS = ("pipeline", "squash")


class TraceEvent:
    """One structured trace event (Chrome ``trace_event`` shaped)."""

    __slots__ = ("name", "cat", "ph", "ts", "dur", "tid", "args")

    def __init__(self, name: str, cat: str, ph: str, ts: int,
                 dur: int = 0, tid: int = 0,
                 args: Optional[Dict[str, Any]] = None):
        self.name = name
        self.cat = cat
        self.ph = ph
        self.ts = ts
        self.dur = dur
        self.tid = tid
        self.args = args

    def to_chrome(self) -> Dict[str, Any]:
        event: Dict[str, Any] = {
            "name": self.name, "cat": self.cat, "ph": self.ph,
            "ts": self.ts, "pid": 0, "tid": self.tid,
        }
        if self.ph == PH_COMPLETE:
            event["dur"] = self.dur
        if self.ph == PH_INSTANT:
            event["s"] = "t"  # thread-scoped instant
        if self.args:
            event["args"] = self.args
        return event

    def __repr__(self) -> str:
        return (f"TraceEvent({self.name!r}, cat={self.cat!r}, "
                f"ph={self.ph!r}, ts={self.ts}, dur={self.dur}, "
                f"tid={self.tid})")


class EventTracer:
    """Ring-buffered structured tracer."""

    def __init__(self, capacity: int = 1 << 16):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._ring: List[Optional[TraceEvent]] = [None] * capacity
        self._total = 0

    # --- ring mechanics ---------------------------------------------------

    def _append(self, event: TraceEvent) -> None:
        self._ring[self._total % self.capacity] = event
        self._total += 1

    def __len__(self) -> int:
        return min(self._total, self.capacity)

    @property
    def total_emitted(self) -> int:
        return self._total

    @property
    def dropped(self) -> int:
        return max(self._total - self.capacity, 0)

    def events(self) -> Iterator[TraceEvent]:
        """Retained events, oldest first (handles wraparound)."""
        if self._total <= self.capacity:
            for event in self._ring[:self._total]:
                assert event is not None
                yield event
            return
        head = self._total % self.capacity
        for event in self._ring[head:]:
            assert event is not None
            yield event
        for event in self._ring[:head]:
            assert event is not None
            yield event

    def clear(self) -> None:
        self._ring = [None] * self.capacity
        self._total = 0

    # --- generic emission -------------------------------------------------

    def instant(self, name: str, ts: int, cat: str = "event",
                tid: int = 0, **args: Any) -> None:
        self._append(TraceEvent(name, cat, PH_INSTANT, ts, tid=tid,
                                args=args or None))

    def complete(self, name: str, ts: int, dur: int, cat: str = "span",
                 tid: int = 0, **args: Any) -> None:
        self._append(TraceEvent(name, cat, PH_COMPLETE, ts,
                                dur=max(dur, 1), tid=tid,
                                args=args or None))

    def counter(self, name: str, ts: int,
                values: Dict[str, Any]) -> None:
        self._append(TraceEvent(name, "counter", PH_COUNTER, ts,
                                args=dict(values)))

    # --- core observer stages ---------------------------------------------
    #
    # Instruction lifecycles are recorded as one complete slice each,
    # emitted at the terminal transition (retire or squash), when the
    # whole fetch->issue->complete timeline is on the entry itself, so
    # the tracer keeps no per-instruction state and needs no decode,
    # issue or complete stage.

    def _instruction_slice(self, cycle: int, entry: Any, cat: str,
                           **extra: Any) -> None:
        fetched = entry.fetch_cycle
        args: Dict[str, Any] = {"seq": entry.seq, "index": entry.index}
        if entry.issue_cycle is not None:
            args["issue"] = entry.issue_cycle
        if entry.complete_cycle is not None:
            args["complete"] = entry.complete_cycle
            if entry.fault is not None:
                args["faulted"] = True
        if entry.is_replay:
            args["replay"] = True
        args.update(extra)
        self._append(TraceEvent(str(entry.instr), cat, PH_COMPLETE,
                                fetched, dur=max(cycle - fetched, 1),
                                tid=entry.context_id, args=args))

    def on_retire(self, core: Any, context: Any, entry: Any) -> None:
        self._instruction_slice(core.cycle, entry, "pipeline")

    def on_squash(self, core: Any, context: Any, squashed: Sequence,
                  reason: str, trigger: Any) -> None:
        for entry in squashed:
            self._instruction_slice(core.cycle, entry, "squash",
                                    reason=reason)

    # --- queries ----------------------------------------------------------

    def instructions(self, context_id: int,
                     index: Optional[int] = None) -> List[TraceEvent]:
        """Retained instruction slices of *context_id* (only those of
        static instruction *index*, if given: its replay trail), in
        fetch order."""
        found = [e for e in self.events()
                 if e.cat in _INSTRUCTION_CATS and e.tid == context_id
                 and (index is None or e.args["index"] == index)]
        found.sort(key=lambda e: (e.ts, e.tid, e.args["seq"]))
        return found

    # --- exporters --------------------------------------------------------

    def export_jsonl(self, path) -> int:
        """Write retained events as JSON Lines; returns event count."""
        count = 0
        with open(path, "w") as fh:
            for event in self.events():
                record: Dict[str, Any] = {
                    "name": event.name, "cat": event.cat,
                    "ph": event.ph, "ts": event.ts, "tid": event.tid,
                }
                if event.ph == PH_COMPLETE:
                    record["dur"] = event.dur
                if event.args:
                    record["args"] = event.args
                fh.write(json.dumps(record, sort_keys=True) + "\n")
                count += 1
        return count

    def chrome_trace(self) -> Dict[str, Any]:
        """The Chrome ``trace_event`` payload as a dict."""
        trace_events: List[Dict[str, Any]] = [{
            "name": "process_name", "ph": "M", "pid": 0,
            "args": {"name": "repro machine"},
        }]
        tids = sorted({e.tid for e in self.events()})
        for tid in tids:
            trace_events.append({
                "name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                "args": {"name": _TRACK_NAMES.get(tid, f"ctx{tid}")},
            })
        trace_events.extend(e.to_chrome() for e in self.events())
        return {"traceEvents": trace_events, "displayTimeUnit": "ns",
                "otherData": {"dropped_events": self.dropped,
                              "timestamp_unit": "cycles"}}

    def export_chrome_trace(self, path) -> int:
        """Write the Chrome trace JSON; returns event count (without
        metadata records)."""
        payload = self.chrome_trace()
        with open(path, "w") as fh:
            json.dump(payload, fh)
        return len(self)


def render_pipeline(slices: Sequence[TraceEvent],
                    start_cycle: Optional[int] = None,
                    end_cycle: Optional[int] = None,
                    max_width: int = 100) -> str:
    """Draw instruction slices as a text pipeline diagram.

    Stage marks: ``F`` fetch, ``I`` issue, ``C`` complete, ``R``
    retire, ``X`` squash; ``-`` waiting in the ROB, ``=`` executing.
    """
    slices = list(slices)
    if not slices:
        return "(no instructions traced)"
    lo = start_cycle if start_cycle is not None else min(
        s.ts for s in slices)
    hi = end_cycle if end_cycle is not None else max(
        s.ts + s.dur for s in slices)
    hi = max(hi, lo)
    scale = max(1, (hi - lo + 1 + max_width - 1) // max_width)

    def column(cycle: int) -> int:
        return (cycle - lo) // scale

    width = column(hi) + 1
    lines = [f"cycles {lo}..{hi}"
             + (f" (1 column = {scale} cycles)" if scale > 1 else "")]
    for event in slices:
        fetch, end = event.ts, event.ts + event.dur
        if end < lo or fetch > hi:
            continue
        args = event.args
        issue = args.get("issue")
        row = [" "] * width
        start = column(max(fetch, lo))
        stop = column(min(end, hi))
        for i in range(start, stop + 1):
            row[i] = "-"
        if issue is not None and lo <= issue <= hi:
            for i in range(column(issue), stop + 1):
                row[i] = "="
        row[start] = "F"
        marks = ((issue, "I"), (args.get("complete"), "C"),
                 (end, "R" if event.cat == "pipeline" else "X"))
        for cycle, mark in marks:
            if cycle is not None and lo <= cycle <= hi:
                row[column(cycle)] = mark
        label = (f"c{event.tid} #{args['index']:<3} "
                 f"{event.name[:28]:<28}")
        lines.append(f"{label} |{''.join(row)}|")
    return "\n".join(lines)


__all__ = [
    "render_pipeline",
    "EventTracer",
    "TraceEvent",
    "HARNESS_TID",
    "KERNEL_TID",
    "MICROSCOPE_TID",
    "PH_COMPLETE",
    "PH_INSTANT",
    "PH_COUNTER",
]
