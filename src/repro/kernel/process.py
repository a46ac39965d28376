"""Processes and their address spaces.

A :class:`Process` owns a page-table tree, a PCID, and a set of virtual
memory areas (VMAs).  Data regions are allocated page-aligned via
:meth:`Process.alloc`, which is how victim programs get the property
the paper's attacks rely on: the replay handle, the pivot and the
secret tables all live on *different* pages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.kernel.frames import FrameAllocator
from repro.mem.physical import PhysicalMemory
from repro.vm import address as vaddr
from repro.vm.pagetable import (
    PTE_PRESENT,
    PTE_USER,
    PTE_WRITABLE,
    PageTables,
)

#: Default base of the data segment.
DATA_BASE = 0x1000_0000
#: Default base of the code segment (fetch itself is not translated in
#: the timing model, but the layout keeps addresses realistic).
CODE_BASE = 0x0040_0000

_MAX_VADDR = vaddr.MAX_VADDR
_PAGE_SHIFT = vaddr.PAGE_SHIFT
_OFFSET_MASK = vaddr.PAGE_SIZE - 1


@dataclass
class VMA:
    """One virtual memory area."""

    name: str
    start: int
    size: int
    flags: int = PTE_PRESENT | PTE_WRITABLE | PTE_USER
    #: Whether pages were populated eagerly (False = demand-paged).
    populated: bool = True

    @property
    def end(self) -> int:
        return self.start + self.size

    def contains(self, va: int) -> bool:
        return self.start <= va < self.end


class ProcessError(Exception):
    """Raised on bad address-space operations."""


class Process:
    """A user process: address space + identity."""

    def __init__(self, pid: int, pcid: int, phys: PhysicalMemory,
                 frames: FrameAllocator, name: str = ""):
        self.pid = pid
        self.pcid = pcid
        self.name = name or f"proc{pid}"
        self.phys = phys
        self.frames = frames
        self.page_tables = PageTables(phys, frames.allocate)
        self.vmas: List[VMA] = []
        self._data_cursor = DATA_BASE
        #: Pages mapped into this process: vpn -> frame.
        self.page_frames: Dict[int, int] = {}
        #: Set when the process is killed by a fault it cannot satisfy.
        self.terminated = False
        self.enclave = None  # set by repro.sgx when the process enters one

    @property
    def root_frame(self) -> int:
        """The CR3 value of this address space."""
        return self.page_tables.root_frame

    # --- region allocation -------------------------------------------------

    def alloc(self, size: int, name: str = "anon", populate: bool = True,
              flags: int = PTE_PRESENT | PTE_WRITABLE | PTE_USER) -> int:
        """Allocate a page-aligned region of at least *size* bytes and
        return its base virtual address.

        Regions never share pages with each other — each allocation
        starts on a fresh page and is padded to a page boundary, so
        distinct variables can serve as independent replay handles and
        pivots.
        """
        if size <= 0:
            raise ProcessError("allocation size must be positive")
        pages = (size + vaddr.PAGE_SIZE - 1) // vaddr.PAGE_SIZE
        base = self._data_cursor
        self._data_cursor += pages * vaddr.PAGE_SIZE
        vma = VMA(name, base, pages * vaddr.PAGE_SIZE, flags,
                  populated=populate)
        self.vmas.append(vma)
        if populate:
            for i in range(pages):
                self._populate_page(base + i * vaddr.PAGE_SIZE, flags)
        return base

    def _populate_page(self, va: int, flags: int) -> int:
        frame = self.frames.allocate()
        self.phys.zero_frame(frame)
        self.page_tables.map(va, frame, flags)
        self.page_frames[vaddr.vpn(va)] = frame
        return frame

    def ensure_mapped(self, va: int) -> int:
        """Demand-page *va* if needed; return its frame.  Raises
        :class:`ProcessError` when *va* is outside every VMA."""
        page_vpn = vaddr.vpn(va)
        if page_vpn in self.page_frames:
            self.page_tables.set_present(vaddr.page_base(va), True)
            return self.page_frames[page_vpn]
        vma = self.vma_containing(va)
        if vma is None:
            raise ProcessError(f"{va:#x} not in any VMA of {self.name}")
        return self._populate_page(vaddr.page_base(va), vma.flags)

    def vma_containing(self, va: int) -> Optional[VMA]:
        for vma in self.vmas:
            if vma.contains(va):
                return vma
        return None

    def vma_named(self, name: str) -> VMA:
        for vma in self.vmas:
            if vma.name == name:
                return vma
        raise ProcessError(f"no VMA named {name!r} in {self.name}")

    # --- debug (kernel-port) memory access --------------------------------

    def translate(self, va: int) -> int:
        """Software translation (no cache/TLB side effects)."""
        return self.page_tables.translate(va)

    def translate_any(self, va: int) -> int:
        """Translate even when the present bit is cleared — the kernel
        knows where the page really is."""
        if not 0 <= va < _MAX_VADDR:
            vaddr.check_vaddr(va)  # raises ValueError
        frame = self.page_frames.get(va >> _PAGE_SHIFT)
        if frame is None:
            raise ProcessError(f"{va:#x} has no backing frame")
        return (frame << _PAGE_SHIFT) | (va & _OFFSET_MASK)

    def read(self, va: int, width: int = 8):
        """Debug read, bypassing caches (kernel direct-map access)."""
        return self.phys.read(self.translate_any(va), width)

    def write(self, va: int, value, width: int = 8):
        """Debug write, bypassing caches."""
        self.phys.write(self.translate_any(va), value, width)

    def write_words(self, va: int, values, width: int = 8):
        """Write a sequence of words starting at *va*."""
        for i, value in enumerate(values):
            self.write(va + i * width, value, width)

    def read_words(self, va: int, count: int, width: int = 8) -> list:
        return [self.read(va + i * width, width) for i in range(count)]

    # --- snapshot support -------------------------------------------------

    def capture(self) -> tuple:
        """Clone address-space bookkeeping.  Page-table *contents* live
        in physical memory and are captured there; ``root_frame`` is
        fixed at construction."""
        return (
            [VMA(v.name, v.start, v.size, v.flags, v.populated)
             for v in self.vmas],
            self._data_cursor,
            dict(self.page_frames),
            self.terminated,
            self.enclave,
        )

    def restore(self, state: tuple):
        vmas, data_cursor, page_frames, terminated, enclave = state
        self.vmas = [VMA(v.name, v.start, v.size, v.flags, v.populated)
                     for v in vmas]
        self._data_cursor = data_cursor
        self.page_frames = dict(page_frames)
        self.terminated = terminated
        self.enclave = enclave
