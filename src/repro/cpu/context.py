"""Hardware (SMT) contexts.

A :class:`HardwareContext` is one logical processor: architectural
register state, a fetch pointer, a private reorder buffer and rename
map, plus TSX transaction state.  Two contexts share one physical
core's ports and memory structures — that sharing is what the Monitor
exploits to observe the Victim.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Set, Tuple

from repro.isa import registers
from repro.isa.program import Program
from repro.cpu.decode import DecodedInstr, decode_program
from repro.cpu.rob import ReorderBuffer, ROBEntry, clone_entry
from repro.observability.stats import ContextStats

__all__ = ["ContextState", "ContextStats", "HardwareContext",
           "TransactionState"]

_by_seq = attrgetter("seq")


class ContextState(enum.Enum):
    IDLE = "idle"          # no program loaded
    RUNNING = "running"
    BLOCKED = "blocked"    # trapped to the kernel; resumes at a cycle
    HALTED = "halted"      # retired a HALT or ran past program end


@dataclass
class TransactionState:
    """State of an in-progress TSX transaction (committed TBEGIN)."""

    fallback_index: int
    int_regs: Dict[str, int]
    fp_regs: Dict[str, float]
    #: Buffered (paddr, value, width) writes, drained on commit.
    write_buffer: List[Tuple[int, object, int]] = field(default_factory=list)
    #: Cache lines in the write set; eviction of any aborts (§7.1).
    write_lines: Set[int] = field(default_factory=set)
    #: Cache lines in the read set.
    read_lines: Set[int] = field(default_factory=set)


class HardwareContext:
    """One SMT logical processor."""

    def __init__(self, context_id: int, rob_size: int):
        self.context_id = context_id
        self.int_regs = registers.fresh_int_regfile()
        self.fp_regs = registers.fresh_fp_regfile()
        self.rob = ReorderBuffer(rob_size)
        #: Youngest in-flight producer per register.
        self.rename: Dict[str, ROBEntry] = {}
        #: Entries with operands ready, waiting for a port.  Kept in
        #: program (seq) order via :meth:`wake`; ``_ready_dirty`` marks
        #: an out-of-order wakeup so dispatch re-sorts only when needed.
        self.ready: List[ROBEntry] = []
        self._ready_dirty = False
        #: Executed-but-not-retired loads indexed by virtual address,
        #: for O(1) memory-order-violation checks at store resolution.
        self.inflight_loads: Dict[int, List[ROBEntry]] = {}
        self.state = ContextState.IDLE
        self.program: Optional[Program] = None
        #: ``program``'s decode table (repro.cpu.decode), indexed like
        #: the program.  Derived state: never captured by a snapshot.
        self.decoded: Tuple[DecodedInstr, ...] = ()
        self.process = None  # set by the kernel when scheduling
        self.fetch_index = 0
        #: Front end stalled until this cycle (mispredict/squash refill).
        self.fetch_stall_until = 0
        #: Context blocked (kernel trap) until this cycle.
        self.blocked_until = 0
        #: Sequence numbers of in-flight FENCEs (and fenced RDRANDs):
        #: younger entries may not begin execution.
        self.fence_seqs: List[int] = []
        #: Dynamic-instance replay detection: indices squashed at least
        #: once since their last retirement.
        self.replay_candidates: Set[int] = set()
        self.txn: Optional[TransactionState] = None
        self.txn_abort_pending: Optional[str] = None
        self.last_txn_abort_reason: Optional[str] = None
        self.pending_interrupt: Optional[str] = None
        #: Set by a squash observer (the ``fences`` defense): the next
        #: decoded instruction behaves as if preceded by a fence.
        self.serialize_next_fetch = False
        self.stats = ContextStats()
        self._next_seq = 0

    # --- lifecycle ---------------------------------------------------------

    def load_program(self, program: Program, process=None,
                     start_index: int = 0):
        """Bind *program* (and optionally a process) and start running."""
        self.program = program
        self.decoded = decode_program(program)
        self.process = process
        self.fetch_index = start_index
        self.state = ContextState.RUNNING
        self.fetch_stall_until = 0
        self.blocked_until = 0
        self.rename.clear()
        self.ready.clear()
        self._ready_dirty = False
        self.inflight_loads.clear()
        self.fence_seqs.clear()
        self.serialize_next_fetch = False
        self.replay_candidates.clear()
        self.txn = None
        self.txn_abort_pending = None
        self.rob.squash_younger_than(-1)

    def next_seq(self) -> int:
        seq = self._next_seq
        self._next_seq += 1
        return seq

    @property
    def running(self) -> bool:
        return self.state is ContextState.RUNNING

    @property
    def in_transaction(self) -> bool:
        return self.txn is not None

    def finished(self) -> bool:
        """True when the context will never retire anything again."""
        if self.state is ContextState.HALTED:
            return True
        if self.state is ContextState.IDLE:
            return True
        if (self.state is ContextState.RUNNING and self.rob.empty
                and self.program is not None
                and self.fetch_index >= len(self.decoded)):
            return True
        return False

    # --- register access ---------------------------------------------------

    def read_reg(self, name: str):
        if name in self.int_regs:
            return self.int_regs[name]
        return self.fp_regs[name]

    def write_reg(self, name: str, value):
        if name in self.int_regs:
            self.int_regs[name] = int(value)
        else:
            self.fp_regs[name] = float(value)

    def snapshot_regs(self) -> Tuple[Dict[str, int], Dict[str, float]]:
        return dict(self.int_regs), dict(self.fp_regs)

    def restore_regs(self, snapshot: Tuple[Dict[str, int],
                                           Dict[str, float]]):
        self.int_regs, self.fp_regs = dict(snapshot[0]), dict(snapshot[1])

    # --- scheduling support --------------------------------------------------

    def wake(self, entry: ROBEntry):
        """Add *entry* to the ready queue, tracking ordering: fetch-time
        wakeups arrive in seq order, completion-time wakeups may not."""
        ready = self.ready
        if ready and ready[-1].seq > entry.seq:
            self._ready_dirty = True
        ready.append(entry)

    def sorted_ready(self) -> List[ROBEntry]:
        """The ready queue in program (seq) order, re-sorting only when
        an out-of-order wakeup dirtied it."""
        if self._ready_dirty:
            self.ready.sort(key=_by_seq)
            self._ready_dirty = False
        return self.ready

    def index_inflight_load(self, entry: ROBEntry):
        """Record an issued load for memory-order checks (keyed by VA)."""
        self.inflight_loads.setdefault(entry.addr, []).append(entry)

    def unindex_load(self, entry: ROBEntry):
        """Drop a retired load from the in-flight index."""
        bucket = self.inflight_loads.get(entry.addr)
        if bucket is None:
            return
        try:
            bucket.remove(entry)
        except ValueError:
            return
        if not bucket:
            del self.inflight_loads[entry.addr]

    # --- squash support ------------------------------------------------------

    def rebuild_rename(self):
        """Recompute the rename map from surviving ROB entries after a
        squash (youngest producer wins)."""
        self.rename.clear()
        decoded = self.decoded
        for entry in self.rob.entries:
            dest = decoded[entry.index].dest
            if dest is not None:
                self.rename[dest] = entry

    def drop_squashed_ready(self):
        self.ready = [e for e in self.ready if not e.squashed]

    def note_squashed(self, entries):
        """Track squashed dynamic instructions for replay accounting and
        clean fence bookkeeping."""
        if not entries:
            return
        self.stats.squashed += len(entries)
        self.stats.squash_events += 1
        squashed_seqs = {e.seq for e in entries}
        self.fence_seqs = [s for s in self.fence_seqs
                           if s not in squashed_seqs]
        for entry in entries:
            self.replay_candidates.add(entry.index)
            if entry.op_cls == "load" and entry.addr is not None:
                self.unindex_load(entry)

    def oldest_fence_seq(self) -> Optional[int]:
        return min(self.fence_seqs) if self.fence_seqs else None

    # --- snapshot support ----------------------------------------------------

    def _capture_txn(self) -> Optional[tuple]:
        txn = self.txn
        if txn is None:
            return None
        return (txn.fallback_index, dict(txn.int_regs), dict(txn.fp_regs),
                list(txn.write_buffer), set(txn.write_lines),
                set(txn.read_lines))

    def capture(self, memo: dict) -> tuple:
        """Clone all mutable state.  *memo* is the core-wide ROB-entry
        clone memo; sharing it preserves entry aliasing between the
        ROB, rename map, ready queue, load index and the event heap.
        ``program`` and ``process`` are shared by reference (programs
        are immutable; process state is captured by the kernel).  The
        decode table is derived from ``program`` and left out."""
        return (
            dict(self.int_regs), dict(self.fp_regs),
            self.rob.capture(memo),
            {reg: clone_entry(e, memo) for reg, e in self.rename.items()},
            [clone_entry(e, memo) for e in self.ready],
            self._ready_dirty,
            {addr: [clone_entry(e, memo) for e in bucket]
             for addr, bucket in self.inflight_loads.items()},
            self.state, self.program, self.process,
            self.fetch_index, self.fetch_stall_until, self.blocked_until,
            list(self.fence_seqs), set(self.replay_candidates),
            self._capture_txn(),
            self.txn_abort_pending, self.last_txn_abort_reason,
            self.pending_interrupt, self.serialize_next_fetch,
            self.stats.capture(),
            self._next_seq,
        )

    def restore(self, state: tuple, memo: dict):
        (int_regs, fp_regs, rob, rename, ready, ready_dirty, inflight,
         ctx_state, program, process, fetch_index, fetch_stall_until,
         blocked_until, fence_seqs, replay_candidates, txn,
         txn_abort_pending, last_txn_abort_reason, pending_interrupt,
         serialize_next_fetch, stats, next_seq) = state
        self.int_regs = dict(int_regs)
        self.fp_regs = dict(fp_regs)
        self.rob.restore(rob, memo)
        self.rename = {reg: clone_entry(e, memo)
                       for reg, e in rename.items()}
        self.ready = [clone_entry(e, memo) for e in ready]
        self._ready_dirty = ready_dirty
        self.inflight_loads = {
            addr: [clone_entry(e, memo) for e in bucket]
            for addr, bucket in inflight.items()}
        self.state = ctx_state
        if program is not self.program:
            self.decoded = decode_program(program)
        self.program = program
        self.process = process
        self.fetch_index = fetch_index
        self.fetch_stall_until = fetch_stall_until
        self.blocked_until = blocked_until
        self.fence_seqs = list(fence_seqs)
        self.replay_candidates = set(replay_candidates)
        if txn is None:
            self.txn = None
        else:
            (fallback, txn_ints, txn_fps, write_buffer, write_lines,
             read_lines) = txn
            self.txn = TransactionState(
                fallback_index=fallback, int_regs=dict(txn_ints),
                fp_regs=dict(txn_fps), write_buffer=list(write_buffer),
                write_lines=set(write_lines), read_lines=set(read_lines))
        self.txn_abort_pending = txn_abort_pending
        self.last_txn_abort_reason = last_txn_abort_reason
        self.pending_interrupt = pending_interrupt
        self.serialize_next_fetch = serialize_next_fetch
        self.stats.restore(stats)
        self._next_seq = next_seq
