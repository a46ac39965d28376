"""Page Walk Cache (PWC).

Modern MMUs cache recently used entries of the three *upper* page-table
levels (PGD, PUD, PMD) so a page walk can skip memory accesses for the
levels that hit (Section 2.1).  The leaf PTE level is never cached here.

Entries are tagged by ``(pcid, level, address-prefix)`` where the prefix
is the virtual-address bits that select the walk path down to that
level.  Replacement is global LRU over a fixed number of entries.

MicroScope's Replayer flushes this structure as part of attack setup so
the replay handle's walk really visits memory (Fig. 3, step 1).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.vm import address as addr
from repro.observability.stats import PWCStats

__all__ = ["PageWalkCache", "PWCConfig", "PWCStats"]


@dataclass
class PWCConfig:
    entries: int = 32
    hit_latency: int = 1


class PageWalkCache:
    """LRU cache over upper-level page-table entries."""

    #: Levels eligible for PWC caching (everything but the leaf).
    CACHEABLE_LEVELS = tuple(range(addr.NUM_LEVELS - 1))

    def __init__(self, config: Optional[PWCConfig] = None):
        self.config = config or PWCConfig()
        self.hit_latency = self.config.hit_latency
        self._entries: "OrderedDict[Tuple[int, int, int], int]" = OrderedDict()
        self.stats = PWCStats()

    @staticmethod
    def _key(pcid: int, va: int, level: int) -> Tuple[int, int, int]:
        return (pcid, level, addr.prefix(va, level))

    def lookup(self, pcid: int, va: int, level: int) -> Optional[int]:
        """Return the cached raw entry for *va* at *level*, or ``None``."""
        if level not in self.CACHEABLE_LEVELS:
            return None
        return self.lookup_key(self._key(pcid, va, level))

    def lookup_key(self, key: Tuple[int, int, int]) -> Optional[int]:
        """:meth:`lookup` by the tag of an upper-level entry, ``(pcid,
        level, addr.prefix(va, level))``: the page walker makes its tags
        itself, from the shift it also indexes the table with."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def insert(self, pcid: int, va: int, level: int, entry: int):
        """Cache the raw *entry* for *va* at *level* (upper levels only)."""
        if level not in self.CACHEABLE_LEVELS:
            return
        self.insert_key(self._key(pcid, va, level), entry)

    def insert_key(self, key: Tuple[int, int, int], entry: int):
        """:meth:`insert` by the tag of an upper-level entry (see
        :meth:`lookup_key`)."""
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.config.entries:
            self._entries.popitem(last=False)

    def invalidate_va(self, pcid: int, va: int):
        """Drop every cached upper-level entry on *va*'s walk path."""
        for level in self.CACHEABLE_LEVELS:
            self._entries.pop(self._key(pcid, va, level), None)

    def flush_all(self):
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    # --- snapshot support -------------------------------------------------

    def capture(self) -> tuple:
        return (OrderedDict(self._entries), self.stats.capture())

    def restore(self, state: tuple):
        entries, stats = state
        self._entries = OrderedDict(entries)
        self.stats.restore(stats)
