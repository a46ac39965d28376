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

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.physical import PhysicalMemory
from repro.vm import address as addr
from repro.vm.faults import PageFault
from repro.vm.pagetable import (
    PTE_ACCESSED,
    PTE_DIRTY,
    PageTables,
    WalkStep,
    entry_frame,
    entry_present,
)
from repro.vm.pwc import PageWalkCache
from repro.observability.stats import WalkerStats

__all__ = ["PageWalker", "WalkResult", "WalkerStats"]


@dataclass(frozen=True)
class WalkResult:
    """Outcome of one hardware page walk."""

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
        latency = 0
        steps = []
        pwc_hits = 0
        table = root_frame
        fault: Optional[PageFault] = None
        frame: Optional[int] = None
        flags = 0
        for level in range(addr.NUM_LEVELS):
            latency += self.LEVEL_OVERHEAD
            cached = self.pwc.lookup(pcid, va, level)
            if cached is not None:
                latency += self.pwc.hit_latency
                entry = cached
                entry_paddr = PageTables.entry_paddr(
                    table, addr.level_index(va, level))
            else:
                entry_paddr = PageTables.entry_paddr(
                    table, addr.level_index(va, level))
                latency += self.hierarchy.access(entry_paddr)
                entry = self.phys.read(entry_paddr, 8)
                if entry_present(entry):
                    # Real PWCs cache only valid paging structures.
                    self.pwc.insert(pcid, va, level, entry)
            if cached is not None:
                pwc_hits += 1
            steps.append(WalkStep(level, entry_paddr, entry))
            if not entry_present(entry):
                fault = PageFault(va=va, pcid=pcid, level=level,
                                  is_write=is_write,
                                  is_instruction=is_instruction,
                                  pc=pc, context_id=context_id)
                break
            if level == addr.NUM_LEVELS - 1:
                frame = entry_frame(entry)
                flags = entry & ((1 << 12) - 1)
                self._set_accessed_dirty(entry_paddr, entry, is_write)
            else:
                table = entry_frame(entry)
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
