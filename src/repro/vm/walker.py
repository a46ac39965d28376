"""Hardware page-table walker (the MMU of Section 2.1).

On a TLB miss the walker starts from the address-space root (CR3) and
fetches one entry per level — PGD, PUD, PMD, PTE — through the *data
cache hierarchy*.  Upper levels may be satisfied by the page-walk
cache.  The accumulated latency of those memory accesses is the page
walk duration, which is the quantity the MicroScope Replayer tunes
"from a few cycles to over one thousand cycles" (§4.1.2) by deciding
which entries are resident where.

The walker also sets the architectural ACCESSED (and DIRTY) bits on the
leaf entry, which is what the Sneaky-Page-Monitoring baseline observes.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.physical import FRAME_SHIFT, PhysicalMemory
from repro.vm import address as addr
from repro.vm.faults import PageFault
from repro.vm.pagetable import (
    ENTRY_SIZE,
    PTE_ACCESSED,
    PTE_DIRTY,
    PTE_PRESENT,
    WalkStep,
)
from repro.vm.pwc import PageWalkCache
from repro.observability.stats import WalkerStats

__all__ = ["PageWalker", "WalkResult", "WalkerStats"]

#: ``(level, shift)`` per level, root first: ``va >> shift`` is the
#: walk-path prefix down to that level (``repro.vm.address.prefix``).
_LEVEL_SHIFTS = tuple(
    (level, addr.PAGE_SHIFT + (addr.NUM_LEVELS - 1 - level) * addr.INDEX_BITS)
    for level in range(addr.NUM_LEVELS))
_LEAF = addr.NUM_LEVELS - 1
_INDEX_MASK = addr.ENTRIES_PER_TABLE - 1
_FLAG_MASK = (1 << 12) - 1


class WalkResult(NamedTuple):
    """Outcome of one hardware page walk (a named tuple, like
    :class:`~repro.vm.pagetable.WalkStep`: one is built per TLB miss)."""

    va: int
    latency: int                    # cycles spent walking
    frame: Optional[int]            # translated frame, None on fault
    flags: int                      # leaf entry flags (0 on fault)
    fault: Optional[PageFault]
    steps: Tuple[WalkStep, ...]     # entries actually visited
    pwc_hits: int                   # upper levels satisfied by the PWC

    @property
    def faulted(self) -> bool:
        return self.fault is not None


class PageWalker:
    """Walks page tables through the memory hierarchy."""

    #: Fixed per-level processing overhead besides the memory access.
    LEVEL_OVERHEAD = 1

    def __init__(self, phys: PhysicalMemory, hierarchy: MemoryHierarchy,
                 pwc: Optional[PageWalkCache] = None):
        self.phys = phys
        self.hierarchy = hierarchy
        # Note: an empty PageWalkCache is falsy (len 0), so `or` would
        # silently replace a provided instance.
        self.pwc = pwc if pwc is not None else PageWalkCache()
        self.stats = WalkerStats()
        #: Optional latency histogram (a registry Histogram); bound by
        #: the machine so per-walk latency distributions land in the
        #: metrics dump.  Not part of walker snapshots — the registry
        #: captures its own instruments.
        self._latency_hist = None

    # --- snapshot support -------------------------------------------------

    def bind_latency_histogram(self, histogram):
        """Record each walk's latency into *histogram* (observability)."""
        self._latency_hist = histogram

    def capture(self) -> tuple:
        """Only the counters are mutable state; the histogram binding is
        identity."""
        return self.stats.capture()

    def restore(self, state: tuple):
        self.stats.restore(state)

    def walk(self, pcid: int, root_frame: int, va: int,
             is_write: bool = False, is_instruction: bool = False,
             pc: Optional[int] = None,
             context_id: Optional[int] = None) -> WalkResult:
        """Translate *va* starting from *root_frame* (the CR3 value)."""
        addr.check_vaddr(va)
        self.stats.walks += 1
        pwc = self.pwc
        access = self.hierarchy.access
        read = self.phys.read
        latency = 0
        steps = []
        pwc_hits = 0
        table = root_frame
        fault: Optional[PageFault] = None
        frame: Optional[int] = None
        flags = 0
        for level, shift in _LEVEL_SHIFTS:
            latency += self.LEVEL_OVERHEAD
            # The bits above *shift* select the path down to this
            # level: their low INDEX_BITS index this level's table, and
            # all of them tag its page-walk-cache entry.
            prefix = va >> shift
            entry_paddr = ((table << FRAME_SHIFT)
                           + (prefix & _INDEX_MASK) * ENTRY_SIZE)
            if level == _LEAF:
                latency += access(entry_paddr)
                entry = read(entry_paddr, 8)
            else:
                key = (pcid, level, prefix)
                entry = pwc.lookup_key(key)
                if entry is not None:
                    latency += pwc.hit_latency
                    pwc_hits += 1
                else:
                    latency += access(entry_paddr)
                    entry = read(entry_paddr, 8)
                    if entry & PTE_PRESENT:
                        # Real PWCs cache only valid paging structures.
                        pwc.insert_key(key, entry)
            steps.append(WalkStep(level, entry_paddr, entry))
            if not entry & PTE_PRESENT:
                fault = PageFault(va=va, pcid=pcid, level=level,
                                  is_write=is_write,
                                  is_instruction=is_instruction,
                                  pc=pc, context_id=context_id)
                break
            if level == _LEAF:
                frame = entry >> FRAME_SHIFT
                flags = entry & _FLAG_MASK
                self._set_accessed_dirty(entry_paddr, entry, is_write)
            else:
                table = entry >> FRAME_SHIFT
        if fault is not None:
            self.stats.faults += 1
        self.stats.total_latency += latency
        if self._latency_hist is not None:
            self._latency_hist.observe(latency)
        return WalkResult(va=va, latency=latency, frame=frame, flags=flags,
                          fault=fault, steps=tuple(steps), pwc_hits=pwc_hits)

    def _set_accessed_dirty(self, entry_paddr: int, entry: int,
                            is_write: bool):
        new_entry = entry | PTE_ACCESSED
        if is_write:
            new_entry |= PTE_DIRTY
        if new_entry != entry:
            self.phys.write(entry_paddr, new_entry, 8)
