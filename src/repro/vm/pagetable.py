"""Four-level page tables living in simulated physical memory.

Page tables are *real data structures in the simulated machine*: each
table occupies one 4 KiB physical frame holding 512 eight-byte entries.
The hardware page walker (:mod:`repro.vm.walker`) reads these entries
through the cache hierarchy, which is precisely what lets MicroScope's
Replayer tune page-walk latency by flushing or pre-warming PTE cache
lines.

Entry format (a 64-bit integer)::

    bits 63-12  physical frame number of the next level / the page
    bit 6       DIRTY
    bit 5       ACCESSED
    bit 2       USER
    bit 1       WRITABLE
    bit 0       PRESENT
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Tuple

from repro.mem.physical import FRAME_SHIFT, PhysicalMemory
from repro.vm import address as addr

PTE_PRESENT = 1 << 0
PTE_WRITABLE = 1 << 1
PTE_USER = 1 << 2
PTE_ACCESSED = 1 << 5
PTE_DIRTY = 1 << 6
_FLAG_MASK = (1 << FRAME_SHIFT) - 1

ENTRY_SIZE = 8


class PageTableError(Exception):
    """Raised on malformed mappings or walks of unmapped addresses."""


def encode_entry(frame: int, flags: int) -> int:
    """Pack *frame* and *flags* into a raw 64-bit entry."""
    if frame < 0:
        raise ValueError(f"negative frame: {frame}")
    return (frame << FRAME_SHIFT) | (flags & _FLAG_MASK)


def entry_frame(entry: int) -> int:
    """Frame number stored in a raw entry."""
    return entry >> FRAME_SHIFT


def entry_flags(entry: int) -> int:
    """Flag bits of a raw entry."""
    return entry & _FLAG_MASK


def entry_present(entry: int) -> bool:
    """True when the PRESENT bit is set."""
    return bool(entry & PTE_PRESENT)


class WalkStep(NamedTuple):
    """One level visited by a (software or hardware) page walk.  A
    named tuple, not a frozen dataclass: a walk builds one per level,
    and a frozen dataclass's ``__init__`` costs about three times as
    much (1.1 against 0.4 us on Python 3.11)."""

    level: int            # 0 = PGD ... 3 = PTE
    entry_paddr: int      # physical address of the entry word
    entry: int            # raw entry value

    @property
    def level_name(self) -> str:
        return addr.LEVEL_NAMES[self.level]

    @property
    def present(self) -> bool:
        return entry_present(self.entry)

    @property
    def frame(self) -> int:
        return entry_frame(self.entry)


@dataclass(frozen=True)
class SoftwareWalk:
    """Result of :meth:`PageTables.software_walk`."""

    va: int
    steps: Tuple[WalkStep, ...]

    @property
    def complete(self) -> bool:
        """All four levels were reachable (present upper levels)."""
        return len(self.steps) == addr.NUM_LEVELS

    @property
    def pte(self) -> WalkStep:
        if not self.complete:
            raise PageTableError(
                f"walk of {self.va:#x} stopped at level {len(self.steps)}")
        return self.steps[-1]

    @property
    def present(self) -> bool:
        return self.complete and self.pte.present

    @property
    def frame(self) -> Optional[int]:
        return self.pte.frame if self.present else None

    def entry_paddrs(self) -> List[int]:
        """Physical addresses of all visited entries (pgd_t..pte_t) —
        the lines the Replayer flushes in attack step 1 (Fig. 3)."""
        return [step.entry_paddr for step in self.steps]


class PageTables:
    """The page-table tree of one address space.

    *allocate_frame* is a callback into the kernel's frame allocator;
    new intermediate tables are allocated (and zeroed) on demand when
    mappings are created, as a real kernel does.
    """

    def __init__(self, phys: PhysicalMemory,
                 allocate_frame: Callable[[], int]):
        self.phys = phys
        self._allocate_frame = allocate_frame
        self.root_frame = self._new_table()

    def _new_table(self) -> int:
        frame = self._allocate_frame()
        self.phys.zero_frame(frame)
        return frame

    # --- entry address arithmetic ---------------------------------------

    @staticmethod
    def entry_paddr(table_frame: int, index: int) -> int:
        """Physical address of entry *index* in the table at *table_frame*."""
        if not 0 <= index < addr.ENTRIES_PER_TABLE:
            raise PageTableError(f"entry index out of range: {index}")
        return (table_frame << FRAME_SHIFT) + index * ENTRY_SIZE

    def _read_entry(self, table_frame: int, index: int) -> Tuple[int, int]:
        paddr = self.entry_paddr(table_frame, index)
        return paddr, self.phys.read(paddr, 8)

    def _write_entry(self, table_frame: int, index: int, entry: int):
        self.phys.write(self.entry_paddr(table_frame, index), entry, 8)

    # --- mapping management ----------------------------------------------

    def map(self, va: int, frame: int, flags: int = PTE_PRESENT
            | PTE_WRITABLE | PTE_USER):
        """Map the page of *va* to physical *frame* with *flags*."""
        addr.check_vaddr(va)
        table = self.root_frame
        for level in range(addr.NUM_LEVELS - 1):
            index = addr.level_index(va, level)
            _, entry = self._read_entry(table, index)
            if not entry_present(entry):
                child = self._new_table()
                entry = encode_entry(
                    child, PTE_PRESENT | PTE_WRITABLE | PTE_USER)
                self._write_entry(table, index, entry)
            table = entry_frame(entry)
        self._write_entry(table, addr.level_index(va, addr.NUM_LEVELS - 1),
                          encode_entry(frame, flags))

    def unmap(self, va: int):
        """Clear the leaf entry for *va* entirely."""
        walk = self.software_walk(va)
        if not walk.complete:
            raise PageTableError(f"{va:#x} has no leaf entry")
        self.phys.write(walk.pte.entry_paddr, 0, 8)

    # --- software walk (kernel / MicroScope module operation) -------------

    def software_walk(self, va: int) -> SoftwareWalk:
        """Walk the tables in software, bypassing caches and TLBs.

        This is the MicroScope module's "identify the page table
        entries required for a translation" operation (§5.2.2).
        """
        addr.check_vaddr(va)
        steps: List[WalkStep] = []
        table = self.root_frame
        for level in range(addr.NUM_LEVELS):
            index = addr.level_index(va, level)
            paddr, entry = self._read_entry(table, index)
            steps.append(WalkStep(level, paddr, entry))
            if level < addr.NUM_LEVELS - 1:
                if not entry_present(entry):
                    break
                table = entry_frame(entry)
        return SoftwareWalk(va, tuple(steps))

    # --- present-bit / flag manipulation (the attack's core knob) ---------

    def set_present(self, va: int, present: bool):
        """Set or clear the PRESENT bit of the leaf entry for *va*."""
        walk = self.software_walk(va)
        if not walk.complete:
            raise PageTableError(f"{va:#x} has no leaf entry to toggle")
        entry = walk.pte.entry
        if present:
            entry |= PTE_PRESENT
        else:
            entry &= ~PTE_PRESENT
        self.phys.write(walk.pte.entry_paddr, entry, 8)

    def is_present(self, va: int) -> bool:
        walk = self.software_walk(va)
        return walk.present

    def leaf_entry_paddr(self, va: int) -> int:
        """Physical address of the pte_t for *va*."""
        walk = self.software_walk(va)
        if not walk.complete:
            raise PageTableError(f"{va:#x} has no leaf entry")
        return walk.pte.entry_paddr

    def update_flags(self, va: int, set_flags: int = 0, clear_flags: int = 0):
        """Set/clear arbitrary flag bits on the leaf entry of *va*."""
        walk = self.software_walk(va)
        if not walk.complete:
            raise PageTableError(f"{va:#x} has no leaf entry")
        entry = (walk.pte.entry | set_flags) & ~clear_flags
        self.phys.write(walk.pte.entry_paddr, entry, 8)

    def translate(self, va: int) -> int:
        """Software translation of *va* to a physical address.

        Raises :class:`PageTableError` when the page is not present —
        callers that want fault semantics use the hardware walker.
        """
        walk = self.software_walk(va)
        if not walk.present:
            raise PageTableError(f"{va:#x} is not mapped present")
        return (walk.frame << FRAME_SHIFT) | addr.page_offset(va)
