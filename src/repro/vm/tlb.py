"""Translation lookaside buffers.

Mirrors Figure 1 of the paper: each entry holds a valid bit, VPN, PPN,
flags and a PCID; lookups hit only when both the VPN and the PCID
match.  :class:`TLBHierarchy` wires the conventional Intel arrangement
of split L1 I/D TLBs backed by a unified L2 TLB, and supports the
maintenance operations the OS needs (INVLPG, full flush, PCID flush).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.observability.stats import TLBStats

__all__ = ["TLB", "TLBConfig", "TLBEntry", "TLBHierarchy",
           "TLBHierarchyConfig", "TLBStats"]


@dataclass
class TLBConfig:
    name: str
    entries: int
    ways: int
    latency: int = 1

    @property
    def num_sets(self) -> int:
        if self.entries % self.ways:
            raise ValueError(
                f"{self.name}: {self.entries} entries not divisible by "
                f"{self.ways} ways")
        return self.entries // self.ways


class TLBEntry:
    """One TLB translation.  Plain slotted class, not a dataclass:
    lookups churn through these on every memory access, and the walk
    loop in §4.1 workloads allocates them constantly."""

    __slots__ = ("vpn", "pcid", "frame", "flags")

    def __init__(self, vpn: int, pcid: int, frame: int, flags: int = 0):
        self.vpn = vpn
        self.pcid = pcid
        self.frame = frame
        self.flags = flags

    def __repr__(self) -> str:
        return (f"TLBEntry(vpn={self.vpn:#x}, pcid={self.pcid}, "
                f"frame={self.frame:#x}, flags={self.flags:#x})")


class TLB:
    """A set-associative TLB with LRU replacement and PCID tags."""

    def __init__(self, config: TLBConfig):
        config.num_sets  # validate eagerly
        self.config = config
        self.name = config.name
        self.latency = config.latency
        self._num_sets = config.num_sets
        self._ways = config.ways
        # Per set: recency-ordered list of entries (most recent last).
        self._sets: List[List[TLBEntry]] = [
            [] for _ in range(self._num_sets)]
        self.stats = TLBStats()

    def _set_for(self, vpn: int) -> List[TLBEntry]:
        return self._sets[vpn % self._num_sets]

    def lookup(self, pcid: int, vpn: int) -> Optional[TLBEntry]:
        """Return the matching entry (refreshing recency) or ``None``."""
        entries = self._sets[vpn % self._num_sets]
        for entry in entries:
            if entry.vpn == vpn and entry.pcid == pcid:
                if entries[-1] is not entry:
                    entries.remove(entry)
                    entries.append(entry)
                self.stats.hits += 1
                return entry
        self.stats.misses += 1
        return None

    def contains(self, pcid: int, vpn: int) -> bool:
        """Presence check without recency update or stats."""
        return any(e.vpn == vpn and e.pcid == pcid
                   for e in self._set_for(vpn))

    def insert(self, pcid: int, vpn: int, frame: int, flags: int = 0):
        """Fill a translation, evicting LRU on conflict."""
        entries = self._set_for(vpn)
        for i, entry in enumerate(entries):
            if entry.vpn == vpn and entry.pcid == pcid:
                entries.pop(i)
                break
        else:
            if len(entries) >= self._ways:
                entries.pop(0)
                self.stats.evictions += 1
        entries.append(TLBEntry(vpn, pcid, frame, flags))

    def invalidate(self, pcid: int, vpn: int) -> bool:
        """INVLPG: drop one translation.  Returns ``True`` if present."""
        entries = self._set_for(vpn)
        for i, entry in enumerate(entries):
            if entry.vpn == vpn and entry.pcid == pcid:
                entries.pop(i)
                self.stats.invalidations += 1
                return True
        return False

    def flush_pcid(self, pcid: int):
        """Drop all translations belonging to *pcid*."""
        for entries in self._sets:
            entries[:] = [e for e in entries if e.pcid != pcid]

    def flush_all(self):
        for entries in self._sets:
            entries.clear()

    def occupancy(self) -> int:
        return sum(len(entries) for entries in self._sets)

    # --- snapshot support -------------------------------------------------

    def capture(self) -> tuple:
        """Clone all sets (entry objects copied — they are mutable)."""
        return (
            [[TLBEntry(e.vpn, e.pcid, e.frame, e.flags) for e in entries]
             for entries in self._sets],
            self.stats.capture(),
        )

    def restore(self, state: tuple):
        sets, stats = state
        self._sets = [
            [TLBEntry(e.vpn, e.pcid, e.frame, e.flags) for e in entries]
            for entries in sets]
        self.stats.restore(stats)


@dataclass
class TLBHierarchyConfig:
    """Split L1 + unified L2, sized after common Intel parts."""

    l1d: TLBConfig = field(default_factory=lambda: TLBConfig(
        "L1-DTLB", entries=64, ways=4, latency=1))
    l1i: TLBConfig = field(default_factory=lambda: TLBConfig(
        "L1-ITLB", entries=64, ways=4, latency=1))
    l2: TLBConfig = field(default_factory=lambda: TLBConfig(
        "L2-TLB", entries=1536, ways=12, latency=7))

    def build(self) -> "TLBHierarchy":
        return TLBHierarchy(self)


class TLBHierarchy:
    """Split L1 instruction/data TLBs backed by a unified L2 TLB."""

    def __init__(self, config: Optional[TLBHierarchyConfig] = None):
        self.config = config or TLBHierarchyConfig()
        self.l1d = TLB(self.config.l1d)
        self.l1i = TLB(self.config.l1i)
        self.l2 = TLB(self.config.l2)

    def _l1(self, is_instruction: bool) -> TLB:
        return self.l1i if is_instruction else self.l1d

    def lookup(self, pcid: int, vpn: int, is_instruction: bool = False
               ) -> Tuple[Optional[TLBEntry], int]:
        """Look up a translation; return ``(entry_or_None, latency)``.

        A hit in L2 is refilled into the appropriate L1, as hardware
        does."""
        l1 = self.l1i if is_instruction else self.l1d
        entry = l1.lookup(pcid, vpn)
        if entry is not None:
            return entry, l1.latency
        latency = l1.latency + self.l2.latency
        entry = self.l2.lookup(pcid, vpn)
        if entry is not None:
            l1.insert(pcid, vpn, entry.frame, entry.flags)
            return entry, latency
        return None, latency

    def insert(self, pcid: int, vpn: int, frame: int, flags: int = 0,
               is_instruction: bool = False):
        """Fill both the L1 (of the right kind) and the L2."""
        self._l1(is_instruction).insert(pcid, vpn, frame, flags)
        self.l2.insert(pcid, vpn, frame, flags)

    def invalidate(self, pcid: int, vpn: int):
        """INVLPG semantics: drop the translation everywhere."""
        self.l1d.invalidate(pcid, vpn)
        self.l1i.invalidate(pcid, vpn)
        self.l2.invalidate(pcid, vpn)

    def flush_pcid(self, pcid: int):
        for tlb in (self.l1d, self.l1i, self.l2):
            tlb.flush_pcid(pcid)

    def flush_all(self):
        for tlb in (self.l1d, self.l1i, self.l2):
            tlb.flush_all()

    # --- snapshot support -------------------------------------------------

    def capture(self) -> tuple:
        return (self.l1d.capture(), self.l1i.capture(), self.l2.capture())

    def restore(self, state: tuple):
        l1d, l1i, l2 = state
        self.l1d.restore(l1d)
        self.l1i.restore(l1i)
        self.l2.restore(l2)
