"""Reorder buffer entries and per-context ROB.

Every in-flight instruction lives in exactly one :class:`ROBEntry`.
Entries move through the classic lifecycle::

    DISPATCHED -> READY -> EXECUTING -> COMPLETED -> (retired)

with two exits off the main path: *squashed* (branch mispredict, fault
at head, transaction abort) and *faulted* (completed carrying a page
fault instead of a value — the precise-exception case MicroScope turns
into a replay engine).
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, List, Optional

from repro.isa.instructions import Instruction
from repro.vm.faults import PageFault


class EntryState(enum.Enum):
    DISPATCHED = "dispatched"   # in ROB, waiting on operands
    READY = "ready"             # operands available, waiting for a port
    EXECUTING = "executing"     # issued to a port
    COMPLETED = "completed"     # result (or fault) available


# The members as module constants, for code that runs every cycle.
# Before Python 3.12 ``EnumType`` defines ``__getattr__``, so each
# ``EntryState.READY`` read takes CPython's slow attribute hook (130-160
# ns on 3.11, against about 10 ns for a module global).
DISPATCHED = EntryState.DISPATCHED
READY = EntryState.READY
EXECUTING = EntryState.EXECUTING
COMPLETED = EntryState.COMPLETED


class ROBEntry:
    """One reorder-buffer slot."""

    __slots__ = (
        "seq", "context_id", "index", "instr", "op_cls", "state",
        "pending", "operands", "value", "addr", "paddr", "fault",
        "dependents", "predicted_taken", "mispredicted",
        "store_value", "addr_resolved", "squashed", "fetch_cycle",
        "issue_cycle", "complete_cycle", "port_name", "walk_latency",
        "is_replay",
    )

    def __init__(self, seq: int, context_id: int, index: int,
                 instr: Instruction, op_cls: str,
                 fetch_cycle: Optional[int] = None):
        self.seq = seq
        self.context_id = context_id
        #: Program instruction index (our PC).
        self.index = index
        self.instr = instr
        self.op_cls = op_cls
        self.state = DISPATCHED
        #: Number of unresolved source operands.
        self.pending = 0
        #: Resolved operand values, slot 0 = rs1, slot 1 = rs2.
        self.operands: List[Optional[object]] = [None, None]
        self.value: Optional[object] = None
        #: Virtual / physical address for memory ops.
        self.addr: Optional[int] = None
        self.paddr: Optional[int] = None
        self.fault: Optional[PageFault] = None
        #: Entries waiting on this one: list of (entry, slot).
        self.dependents: List[tuple] = []
        self.predicted_taken: Optional[bool] = None
        self.mispredicted = False
        #: Value to be stored (for stores), resolved at execute.
        self.store_value: Optional[object] = None
        #: For stores: address computed (forwarding decisions possible).
        self.addr_resolved = False
        self.squashed = False
        #: Lifecycle cycles: decoded, issued to a port, completed.
        self.fetch_cycle = fetch_cycle
        self.issue_cycle: Optional[int] = None
        self.complete_cycle: Optional[int] = None
        self.port_name: Optional[str] = None
        #: Page-walk latency incurred by this access (diagnostics).
        self.walk_latency = 0
        #: True when this entry is a re-execution of a previously
        #: squashed dynamic instruction (replay accounting).
        self.is_replay = False

    @property
    def completed(self) -> bool:
        return self.state is COMPLETED

    @property
    def faulted(self) -> bool:
        return self.fault is not None

    def __repr__(self) -> str:
        return (f"<ROBEntry seq={self.seq} ctx={self.context_id} "
                f"idx={self.index} {self.instr.op.value} "
                f"{self.state.value}{' FAULT' if self.faulted else ''}>")


#: ROBEntry slots copied verbatim when cloning.  ``instr`` (immutable
#: program text) and ``fault`` (frozen dataclass) are shared by
#: reference; ``operands`` and ``dependents`` need fresh containers.
_SCALAR_SLOTS = tuple(s for s in ROBEntry.__slots__
                      if s not in ("operands", "dependents"))


def clone_entry(entry: Optional[ROBEntry], memo: dict
                ) -> Optional[ROBEntry]:
    """Deep-copy *entry* and (recursively) its dependents.

    *memo* maps ``id(original) -> clone`` and must be shared across
    every structure captured from one core — the same in-flight entry
    is referenced from the ROB, the rename map, the ready queue, the
    in-flight-load index and the event heap, and restoring must rebuild
    exactly that aliasing.  Callers must keep the originals alive while
    the memo is in use (ids are only unique among live objects).
    """
    if entry is None:
        return None
    clone = memo.get(id(entry))
    if clone is not None:
        return clone
    clone = ROBEntry.__new__(ROBEntry)
    memo[id(entry)] = clone
    for slot in _SCALAR_SLOTS:
        setattr(clone, slot, getattr(entry, slot))
    clone.operands = list(entry.operands)
    clone.dependents = [(clone_entry(dep, memo), slot)
                        for dep, slot in entry.dependents]
    return clone


class ReorderBuffer:
    """Program-ordered queue of in-flight instructions for one context."""

    __slots__ = ("capacity", "entries", "_stores")

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("ROB capacity must be positive")
        self.capacity = capacity
        self.entries: Deque[ROBEntry] = deque()
        #: In-flight stores only, program order — lets the load path
        #: search the store buffer without walking the whole ROB.
        self._stores: Deque[ROBEntry] = deque()

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def full(self) -> bool:
        return len(self.entries) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self.entries

    @property
    def head(self) -> Optional[ROBEntry]:
        return self.entries[0] if self.entries else None

    def push(self, entry: ROBEntry):
        if self.full:
            raise OverflowError("ROB overflow")
        self.entries.append(entry)
        if entry.op_cls == "store":
            self._stores.append(entry)

    def pop_head(self) -> ROBEntry:
        head = self.entries.popleft()
        if self._stores and self._stores[0] is head:
            self._stores.popleft()
        return head

    def squash_younger_than(self, seq: int) -> List[ROBEntry]:
        """Remove and return every entry with ``entry.seq > seq``
        (marking them squashed).  ``seq = -1`` squashes everything."""
        survivors: Deque[ROBEntry] = deque()
        squashed: List[ROBEntry] = []
        keep = survivors.append
        drop = squashed.append
        for entry in self.entries:
            if entry.seq > seq:
                entry.squashed = True
                drop(entry)
            else:
                keep(entry)
        self.entries = survivors
        if squashed:
            self._stores = deque(e for e in self._stores
                                 if not e.squashed)
        return squashed

    def stores_older_than(self, seq: int) -> List[ROBEntry]:
        """In-flight stores older than *seq*, oldest first."""
        stores: List[ROBEntry] = []
        take = stores.append
        for e in self._stores:     # program order, so seqs ascend
            if e.seq >= seq:
                break
            take(e)
        return stores

    def all_older_completed(self, seq: int) -> bool:
        """True when every entry older than *seq* has completed.
        Entries are program-ordered, so stop at the first younger one."""
        for e in self.entries:
            if e.seq >= seq:
                return True
            if e.state is not COMPLETED:
                return False
        return True

    # --- snapshot support -------------------------------------------------

    def capture(self, memo: dict) -> tuple:
        return ([clone_entry(e, memo) for e in self.entries],
                [clone_entry(e, memo) for e in self._stores])

    def restore(self, state: tuple, memo: dict):
        entries, stores = state
        self.entries = deque(clone_entry(e, memo) for e in entries)
        self._stores = deque(clone_entry(e, memo) for e in stores)
