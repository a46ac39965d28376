"""A single set-associative cache level (tag store only).

Caches model presence, recency and dirtiness of 64-byte lines; data
itself always lives in :class:`~repro.mem.physical.PhysicalMemory`.
Replacement is true LRU per set (Intel's L1 is close enough to LRU for
Prime+Probe purposes).
A cache's ``on_evict`` slot hears every line that leaves it — the
core's TSX model uses the L1's to abort transactions whose write set
loses a line, exactly the abort trigger MicroScope's Section 7.1
exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.observability.stats import CacheStats

__all__ = ["Cache", "CacheConfig", "CacheStats", "LINE_SIZE",
           "LINE_SHIFT", "line_of"]

LINE_SIZE = 64
LINE_SHIFT = 6
#: ``paddr & _LINE_MASK`` clears the offset-within-line bits.
_LINE_MASK = ~(LINE_SIZE - 1)


def line_of(paddr: int) -> int:
    """Line address (paddr with the offset bits cleared)."""
    return paddr & _LINE_MASK


@dataclass
class CacheConfig:
    """Geometry and timing of one cache level."""

    name: str
    size_bytes: int
    ways: int
    latency: int

    @property
    def num_sets(self) -> int:
        sets = self.size_bytes // (self.ways * LINE_SIZE)
        if sets <= 0 or self.size_bytes % (self.ways * LINE_SIZE):
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible into "
                f"{self.ways}-way sets of {LINE_SIZE}B lines")
        return sets


class Cache:
    """One level of the cache hierarchy."""

    __slots__ = ("config", "name", "latency", "_num_sets", "_ways",
                 "_tags", "_dirty", "_lru", "_where", "stats", "on_evict")

    def __init__(self, config: CacheConfig):
        config.num_sets  # validate geometry eagerly
        self.config = config
        self.name = config.name
        self.latency = config.latency
        self._num_sets = config.num_sets
        self._ways = config.ways
        # Per filled set index: the line tag (full line address) of each
        # way or None, each way's dirty bit, and the occupied ways least
        # recently used first.  A set gets its three lists on its first
        # fill; a set never filled owns nothing.
        self._tags: Dict[int, List[Optional[int]]] = {}
        self._dirty: Dict[int, List[bool]] = {}
        self._lru: Dict[int, List[int]] = {}
        # line address -> (set index, way) for O(1) lookups that never
        # recompute the set index.
        self._where: Dict[int, Tuple[int, int]] = {}
        self.stats = CacheStats()
        #: ``on_evict(line_addr, was_dirty)`` or None, called whenever a
        #: line leaves this cache (eviction or invalidation).
        self.on_evict: Optional[Callable[[int, bool], None]] = None

    # --- geometry helpers ---------------------------------------------

    def set_index(self, paddr: int) -> int:
        return (paddr >> LINE_SHIFT) % self._num_sets

    def lines_mapping_to(self, paddr: int, count: int,
                         stride_base: int = 1 << 30) -> List[int]:
        """Return *count* distinct line addresses that map to the same
        set as *paddr* (an eviction set), starting far away from it.

        The target line itself is never part of the set: when *paddr*
        lands at or above *stride_base* the naive arithmetic sequence
        walks straight through it, which would silently self-evict the
        probe target (or alias two attacker allocations).
        """
        target_line = line_of(paddr)
        target_set = self.set_index(paddr)
        span = self._num_sets << LINE_SHIFT
        addr = stride_base + (target_set << LINE_SHIFT)
        lines: List[int] = []
        while len(lines) < count:
            if addr != target_line:
                lines.append(addr)
            addr += span
        return lines

    # --- main operations --------------------------------------------------

    def lookup(self, paddr: int, is_write: bool = False) -> bool:
        """Probe for *paddr*; update recency (and dirtiness on write)."""
        place = self._where.get(paddr & _LINE_MASK)
        if place is None:
            self.stats.misses += 1
            return False
        set_idx, way = place
        order = self._lru[set_idx]
        if order[-1] != way:
            order.remove(way)
            order.append(way)
        if is_write:
            self._dirty[set_idx][way] = True
        self.stats.hits += 1
        return True

    def contains(self, paddr: int) -> bool:
        """Non-intrusive presence check (no recency update, no stats)."""
        return line_of(paddr) in self._where

    def locate(self, paddr: int) -> Optional[Tuple[int, int]]:
        """``(set index, way)`` of *paddr*'s line, or ``None`` when not
        resident.  Non-intrusive (no recency update, no stats) — this
        is the observable the leakage oracle attributes set/way-touch
        events to."""
        return self._where.get(line_of(paddr))

    def insert(self, paddr: int, dirty: bool = False) -> Optional[int]:
        """Fill the line of *paddr*; return the evicted line address (and
        report its dirtiness to ``on_evict``) or ``None``."""
        line_addr = paddr & _LINE_MASK
        where = self._where
        existing = where.get(line_addr)
        if existing is not None:
            set_idx, way = existing
            order = self._lru[set_idx]
            if order[-1] != way:
                order.remove(way)
                order.append(way)
            if dirty:
                self._dirty[set_idx][way] = True
            return None
        set_idx = (paddr >> LINE_SHIFT) % self._num_sets
        order = self._lru.get(set_idx)
        if order is None:
            tags = self._tags[set_idx] = [None] * self._ways
            dirty_bits = self._dirty[set_idx] = [False] * self._ways
            order = self._lru[set_idx] = []
        else:
            tags = self._tags[set_idx]
            dirty_bits = self._dirty[set_idx]
        if len(order) < self._ways:
            way = tags.index(None)
            evicted = None
        else:
            way = order.pop(0)
            evicted = tags[way]
            del where[evicted]
            self.stats.evictions += 1
            if self.on_evict is not None:
                self.on_evict(evicted, dirty_bits[way])
        tags[way] = line_addr
        dirty_bits[way] = dirty
        where[line_addr] = (set_idx, way)
        order.append(way)
        return evicted

    def invalidate(self, paddr: int) -> bool:
        """Drop the line of *paddr* (clflush).  Returns ``True`` if it
        was present."""
        line_addr = paddr & _LINE_MASK
        place = self._where.pop(line_addr, None)
        if place is None:
            return False
        set_idx, way = place
        dirty_bits = self._dirty[set_idx]
        was_dirty = dirty_bits[way]
        dirty_bits[way] = False
        self._tags[set_idx][way] = None
        order = self._lru[set_idx]
        if order[-1] == way:
            order.pop()
        else:
            order.remove(way)
        self.stats.invalidations += 1
        if self.on_evict is not None:
            self.on_evict(line_addr, was_dirty)
        return True

    def flush_all(self):
        """Drop every line."""
        for line_addr in list(self._where):
            self.invalidate(line_addr)

    def resident_lines(self) -> List[int]:
        """All line addresses currently cached (sorted, for tests)."""
        return sorted(self._where)

    def __len__(self) -> int:
        return len(self._where)

    # --- snapshot support -------------------------------------------------

    def capture(self) -> tuple:
        """Clone the mutable tag-store state of every filled set (see
        :mod:`repro.snapshot`)."""
        return (
            {s: list(ways) for s, ways in self._tags.items()},
            {s: list(ways) for s, ways in self._dirty.items()},
            {s: list(order) for s, order in self._lru.items()},
            dict(self._where),
            self.stats.capture(),
        )

    def restore(self, state: tuple):
        """Restore state captured by :meth:`capture`: a set first filled
        after the capture owns nothing again.  The snapshot is cloned
        again, so one capture supports many restores.  The ``on_evict``
        slot is identity, not state, and is left alone."""
        tags, dirty, lru, where, stats = state
        self._tags = {s: list(ways) for s, ways in tags.items()}
        self._dirty = {s: list(ways) for s, ways in dirty.items()}
        self._lru = {s: list(order) for s, order in lru.items()}
        self._where = dict(where)
        self.stats.restore(stats)
