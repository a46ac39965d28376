"""Pipeline tracing: per-instruction lifecycle capture and rendering.

Attach a :class:`PipelineTracer` to a machine
(``machine.attach(tracer)``) and every dynamic instruction's journey —
fetch, issue, complete, retire or squash — is recorded with cycle
timestamps.
:func:`render_pipeline` draws the classic pipeline-viewer text
diagram::

    seq ctx  instruction              F---I===C     R
    ...

which makes replay attacks *visible*: the victim's transmit
instructions appear, execute, and die squashed, replay after replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.cpu.observer import Observer
from repro.cpu.rob import ROBEntry


@dataclass
class InstructionTrace:
    """Lifecycle of one dynamic instruction."""

    seq: int
    context_id: int
    index: int
    text: str
    fetch_cycle: int
    issue_cycle: Optional[int] = None
    complete_cycle: Optional[int] = None
    retire_cycle: Optional[int] = None
    squash_cycle: Optional[int] = None
    squash_reason: Optional[str] = None
    faulted: bool = False

    @property
    def squashed(self) -> bool:
        return self.squash_cycle is not None

    @property
    def end_cycle(self) -> int:
        for value in (self.retire_cycle, self.squash_cycle,
                      self.complete_cycle, self.issue_cycle):
            if value is not None:
                return value
        return self.fetch_cycle


class PipelineTracer(Observer):
    """Records instruction lifecycles as a core observer."""

    def __init__(self, capacity: int = 100_000):
        self.capacity = capacity
        self.records: List[InstructionTrace] = []
        self._live: Dict[int, InstructionTrace] = {}

    def _key(self, entry: ROBEntry) -> int:
        return (entry.context_id << 48) | entry.seq

    # --- observer stages (repro.cpu.observer) -----------------------------

    def on_decode(self, core, context, entry: ROBEntry):
        if len(self.records) >= self.capacity:
            return
        record = InstructionTrace(
            seq=entry.seq, context_id=entry.context_id,
            index=entry.index, text=str(entry.instr),
            fetch_cycle=core.cycle)
        self.records.append(record)
        self._live[self._key(entry)] = record

    def _get(self, entry: ROBEntry) -> Optional[InstructionTrace]:
        return self._live.get(self._key(entry))

    def on_issue(self, core, context, entry: ROBEntry):
        record = self._get(entry)
        if record is not None:
            record.issue_cycle = core.cycle

    def on_complete(self, core, context, entry: ROBEntry):
        record = self._get(entry)
        if record is not None:
            record.complete_cycle = core.cycle
            record.faulted = entry.faulted

    def on_retire(self, core, context, entry: ROBEntry):
        record = self._live.pop(self._key(entry), None)
        if record is not None:
            record.retire_cycle = core.cycle

    def on_squash(self, core, context, squashed: Sequence[ROBEntry],
                  reason: str, trigger: Optional[ROBEntry]):
        for entry in squashed:
            record = self._live.pop(self._key(entry), None)
            if record is not None:
                record.squash_cycle = core.cycle
                record.squash_reason = reason

    # --- queries -----------------------------------------------------------

    def for_context(self, context_id: int) -> List[InstructionTrace]:
        return [r for r in self.records if r.context_id == context_id]

    def squashed(self) -> List[InstructionTrace]:
        return [r for r in self.records if r.squashed]

    def replays_of(self, index: int,
                   context_id: int = 0) -> List[InstructionTrace]:
        """All dynamic instances of static instruction *index* — the
        replay trail."""
        return [r for r in self.records
                if r.context_id == context_id and r.index == index]


def render_pipeline(records: Sequence[InstructionTrace],
                    start_cycle: Optional[int] = None,
                    end_cycle: Optional[int] = None,
                    max_width: int = 100) -> str:
    """Draw records as a text pipeline diagram.

    Stage marks: ``F`` fetch, ``I`` issue, ``C`` complete, ``R``
    retire, ``X`` squash; ``-`` waiting in the ROB, ``=`` executing.
    """
    records = [r for r in records]
    if not records:
        return "(no instructions traced)"
    lo = start_cycle if start_cycle is not None else min(
        r.fetch_cycle for r in records)
    hi = end_cycle if end_cycle is not None else max(
        r.end_cycle for r in records)
    hi = max(hi, lo)
    scale = max(1, (hi - lo + 1 + max_width - 1) // max_width)

    def column(cycle: int) -> int:
        return (cycle - lo) // scale

    width = column(hi) + 1
    lines = [f"cycles {lo}..{hi}"
             + (f" (1 column = {scale} cycles)" if scale > 1 else "")]
    for record in records:
        if record.end_cycle < lo or record.fetch_cycle > hi:
            continue
        row = [" "] * width
        start = column(max(record.fetch_cycle, lo))
        end = column(min(record.end_cycle, hi))
        for i in range(start, end + 1):
            row[i] = "-"
        if record.issue_cycle is not None \
                and lo <= record.issue_cycle <= hi:
            for i in range(column(record.issue_cycle), end + 1):
                row[i] = "="
        row[start] = "F"
        if record.issue_cycle is not None \
                and lo <= record.issue_cycle <= hi:
            row[column(record.issue_cycle)] = "I"
        if record.complete_cycle is not None \
                and lo <= record.complete_cycle <= hi:
            row[column(record.complete_cycle)] = "C"
        if record.retire_cycle is not None \
                and lo <= record.retire_cycle <= hi:
            row[column(record.retire_cycle)] = "R"
        if record.squash_cycle is not None \
                and lo <= record.squash_cycle <= hi:
            row[column(record.squash_cycle)] = "X"
        label = (f"c{record.context_id} #{record.index:<3} "
                 f"{record.text[:28]:<28}")
        lines.append(f"{label} |{''.join(row)}|")
    return "\n".join(lines)
