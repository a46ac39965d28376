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
``on_decode``/``on_retire``/``on_squash`` stages), recording every
dynamic instruction as a completed slice on its context's track.
Attach it with :meth:`repro.cpu.machine.Machine.attach_tracer`, which
wires both the core stages and the kernel/module emission sites at
once.
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

    def __init__(self, capacity: int = 1 << 16,
                 trace_instructions: bool = True):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.trace_instructions = trace_instructions
        self._ring: List[Optional[TraceEvent]] = [None] * capacity
        self._total = 0
        #: Live instruction fetch cycles, keyed like the pipeline
        #: viewer keys entries; popped at the terminal transition.
        self._fetch_cycles: Dict[int, int] = {}

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
        self._fetch_cycles.clear()

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
    # emitted at the terminal transition (retire or squash) when the
    # whole fetch->issue->complete timeline is known from the entry,
    # so the issue and complete stages need no method here.

    def _key(self, entry: Any) -> int:
        return (entry.context_id << 48) | entry.seq

    def on_decode(self, core: Any, context: Any, entry: Any) -> None:
        if self.trace_instructions:
            self._fetch_cycles[self._key(entry)] = core.cycle

    def _instruction_slice(self, cycle: int, entry: Any, cat: str,
                           **extra: Any) -> None:
        fetched = self._fetch_cycles.pop(self._key(entry), None)
        if fetched is None:
            return
        args: Dict[str, Any] = {"seq": entry.seq, "index": entry.index}
        if entry.issue_cycle is not None:
            args["issue"] = entry.issue_cycle
        if entry.complete_cycle is not None:
            args["complete"] = entry.complete_cycle
        if entry.is_replay:
            args["replay"] = True
        args.update(extra)
        self._append(TraceEvent(str(entry.instr), cat, PH_COMPLETE,
                                fetched, dur=max(cycle - fetched, 1),
                                tid=entry.context_id, args=args))

    def on_retire(self, core: Any, context: Any, entry: Any) -> None:
        if self.trace_instructions:
            self._instruction_slice(core.cycle, entry, "pipeline")

    def on_squash(self, core: Any, context: Any, squashed: Sequence,
                  reason: str, trigger: Any) -> None:
        if not self.trace_instructions:
            return
        for entry in squashed:
            self._instruction_slice(core.cycle, entry, "squash",
                                    reason=reason)

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


__all__ = [
    "EventTracer",
    "TraceEvent",
    "HARNESS_TID",
    "KERNEL_TID",
    "MICROSCOPE_TID",
    "PH_COMPLETE",
    "PH_INSTANT",
    "PH_COUNTER",
]
