"""Virtual-memory substrate: paging, TLBs, PWC and the hardware walker."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.vm.address import (
        ENTRIES_PER_TABLE,
        LEVEL_NAMES,
        MAX_VADDR,
        NUM_LEVELS,
        PAGE_SHIFT,
        PAGE_SIZE,
        level_index,
        page_base,
        page_offset,
        prefix,
        same_page,
        split,
        vpn,
    )
    from repro.vm.faults import PageFault
    from repro.vm.pagetable import (
        PTE_ACCESSED,
        PTE_DIRTY,
        PTE_PRESENT,
        PTE_USER,
        PTE_WRITABLE,
        PageTableError,
        PageTables,
        SoftwareWalk,
        WalkStep,
        encode_entry,
        entry_flags,
        entry_frame,
        entry_present,
    )
    from repro.vm.pwc import PageWalkCache, PWCConfig
    from repro.vm.tlb import TLB, TLBConfig, TLBEntry, TLBHierarchy, TLBHierarchyConfig
    from repro.vm.walker import PageWalker, WalkResult

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.vm.address": (
        "ENTRIES_PER_TABLE", "LEVEL_NAMES", "MAX_VADDR", "NUM_LEVELS",
        "PAGE_SHIFT", "PAGE_SIZE", "level_index", "page_base", "page_offset",
        "prefix", "same_page", "split", "vpn"),
    "repro.vm.faults": ("PageFault",),
    "repro.vm.pagetable": (
        "PTE_ACCESSED", "PTE_DIRTY", "PTE_PRESENT", "PTE_USER", "PTE_WRITABLE",
        "PageTableError", "PageTables", "SoftwareWalk", "WalkStep",
        "encode_entry", "entry_flags", "entry_frame", "entry_present"),
    "repro.vm.pwc": ("PageWalkCache", "PWCConfig"),
    "repro.vm.tlb": (
        "TLB", "TLBConfig", "TLBEntry", "TLBHierarchy", "TLBHierarchyConfig"),
    "repro.vm.walker": ("PageWalker", "WalkResult"),
})

__all__ = [
    "ENTRIES_PER_TABLE",
    "LEVEL_NAMES",
    "MAX_VADDR",
    "NUM_LEVELS",
    "PAGE_SHIFT",
    "PAGE_SIZE",
    "level_index",
    "page_base",
    "page_offset",
    "prefix",
    "same_page",
    "split",
    "vpn",
    "PageFault",
    "PTE_ACCESSED",
    "PTE_DIRTY",
    "PTE_PRESENT",
    "PTE_USER",
    "PTE_WRITABLE",
    "PageTableError",
    "PageTables",
    "SoftwareWalk",
    "WalkStep",
    "encode_entry",
    "entry_flags",
    "entry_frame",
    "entry_present",
    "PageWalkCache",
    "PWCConfig",
    "TLB",
    "TLBConfig",
    "TLBEntry",
    "TLBHierarchy",
    "TLBHierarchyConfig",
    "PageWalker",
    "WalkResult",
]
