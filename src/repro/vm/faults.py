"""Page fault descriptors.

A :class:`PageFault` is the architectural record produced when a walk
finds a non-present entry.  It is what the core hands to the kernel's
trap path when the faulting instruction reaches the head of the ROB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.vm import address as addr


@dataclass(frozen=True)
class PageFault:
    """An architectural page fault (precise: raised at ROB head)."""

    va: int                      # faulting virtual address
    pcid: int                    # address-space id of the faulter
    level: int                   # page-table level whose entry failed
    is_write: bool = False
    is_instruction: bool = False
    pc: Optional[int] = None     # program counter of the faulting access
    context_id: Optional[int] = None  # hardware context that faulted

    @property
    def vpn(self) -> int:
        return addr.vpn(self.va)

    @property
    def page_aligned_va(self) -> int:
        """The address as SGX reports it to the OS on AEX: page-aligned,
        with the low 12 bits masked off (§2.3)."""
        return addr.page_base(self.va)

    @property
    def level_name(self) -> str:
        return addr.LEVEL_NAMES[self.level]

    def describe(self) -> str:
        kind = "ifetch" if self.is_instruction else (
            "write" if self.is_write else "read")
        return (f"page fault: va={self.va:#x} ({kind}) at {self.level_name}, "
                f"pcid={self.pcid}")
