"""Multi-level cache hierarchy.

The hierarchy strings individual :class:`~repro.mem.cache.Cache` levels
together and provides the operations the rest of the system needs:

* ``access`` — a demand access that searches levels top-down, fills the
  line into every level above the hit, and returns the total latency.
  This is used by the core's load/store path, by the hardware page
  walker (so page-table-entry caching controls walk latency — the
  Replayer's §4.1.2 tuning knob), and by the Replayer's Probe step.
* ``flush_line`` / ``flush_lines`` — clflush semantics across all
  levels; the Replayer uses this on PTE lines and on victim data.
* ``prime_set_with`` — classic eviction-set priming for attacks that
  cannot use flush.
* ``peek_level`` — non-intrusive ground-truth inspection for tests and
  experiment reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.mem.cache import Cache, CacheConfig, line_of
from repro.observability.stats import HierarchyStats


@dataclass
class HierarchyConfig:
    """Geometry of the whole hierarchy plus DRAM timing.

    Defaults approximate the paper's Xeon E5-1630 v3 at a scale that
    keeps simulation fast: L1D 32 KiB/8-way, L2 256 KiB/8-way, and a
    2 MiB/16-way slice of L3.
    """

    levels: Sequence[CacheConfig] = field(default_factory=lambda: (
        CacheConfig("L1D", size_bytes=32 * 1024, ways=8, latency=4),
        CacheConfig("L2", size_bytes=256 * 1024, ways=8, latency=14),
        CacheConfig("L3", size_bytes=2 * 1024 * 1024, ways=16, latency=48),
    ))
    dram_latency: int = 300

    def build(self) -> "MemoryHierarchy":
        return MemoryHierarchy(self)


#: Level index returned by :meth:`MemoryHierarchy.peek_level` for DRAM.
DRAM_LEVEL = -1


class MemoryHierarchy:
    """A stack of caches backed by DRAM."""

    def __init__(self, config: Optional[HierarchyConfig] = None):
        self.config = config or HierarchyConfig()
        self.levels: List[Cache] = [Cache(c) for c in self.config.levels]
        if not self.levels:
            raise ValueError("hierarchy needs at least one cache level")
        self.dram_latency = self.config.dram_latency
        self.stats = HierarchyStats()
        #: The ``on_mem_access`` observers (repro.cpu.observer), called
        #: after every :meth:`access`; ``Machine.attach`` rebuilds the
        #: tuple.  Identity wiring, not machine state.
        self._on_mem_access: Tuple = ()

    @property
    def l1(self) -> Cache:
        return self.levels[0]

    def level_named(self, name: str) -> Cache:
        for cache in self.levels:
            if cache.name == name:
                return cache
        raise KeyError(f"no cache level named {name!r}")

    # --- demand path -----------------------------------------------------

    def access(self, paddr: int, is_write: bool = False) -> int:
        """Perform a demand access; return total latency in cycles."""
        levels = self.levels
        latency = 0
        hit_level = 0
        for cache in levels:
            latency += cache.latency
            if cache.lookup(paddr, is_write and not hit_level):
                break
            hit_level += 1
        else:
            latency += self.dram_latency
            self.stats.dram_accesses += 1
        # Fill the line into every level above the hit, lowest first.
        # Victim lines move down one level (non-inclusive victim
        # handling keeps recently-used lines findable by Probe); the
        # last level's victims leave the hierarchy.
        level = hit_level - 1
        while level >= 0:
            evicted = levels[level].insert(paddr, is_write and not level)
            if evicted is not None and level + 1 < len(levels):
                levels[level + 1].insert(evicted)
            level -= 1
        for observer in self._on_mem_access:
            observer(paddr, is_write, hit_level, latency)
        return latency

    # --- attacker / kernel operations -------------------------------------

    def flush_line(self, paddr: int):
        """clflush: drop the line of *paddr* from every level."""
        for cache in self.levels:
            cache.invalidate(paddr)

    def flush_lines(self, paddrs: Iterable[int]):
        """clflush each of *paddrs* in turn, every level of one line
        before the next line."""
        invalidates = [cache.invalidate for cache in self.levels]
        for paddr in paddrs:
            for invalidate in invalidates:
                invalidate(paddr)

    def flush_range(self, start: int, size: int):
        """Flush every line overlapping ``[start, start + size)``."""
        first = line_of(start)
        last = line_of(start + size - 1)
        for addr in range(first, last + 64, 64):
            self.flush_line(addr)

    def flush_all(self):
        for cache in self.levels:
            cache.flush_all()

    def prime_set_with(self, paddr: int, level: int = 0,
                       extra_lines: int = 0) -> List[int]:
        """Evict *paddr*'s set at *level* by touching an eviction set.

        Returns the attacker line addresses used, so a later Probe can
        re-measure them.  ``extra_lines`` adds safety margin beyond the
        associativity.
        """
        cache = self.levels[level]
        count = cache.config.ways + extra_lines
        eviction_set = cache.lines_mapping_to(paddr, count)
        for line in eviction_set:
            self.access(line)
        return eviction_set

    def touch(self, paddrs: Iterable[int]) -> int:
        """Access each address once; return total latency."""
        return sum(self.access(p) for p in paddrs)

    # --- inspection ------------------------------------------------------

    def peek_level(self, paddr: int) -> int:
        """Ground truth: index of the closest level containing *paddr*,
        or :data:`DRAM_LEVEL` (-1) when the line is only in DRAM.
        Does not disturb any cache state."""
        for i, cache in enumerate(self.levels):
            if cache.contains(paddr):
                return i
        return DRAM_LEVEL

    def hit_latency(self, level: int) -> int:
        """Latency of a hit at *level* (cumulative from the core)."""
        if level == DRAM_LEVEL:
            return sum(c.latency for c in self.levels) + self.dram_latency
        return sum(c.latency for c in self.levels[:level + 1])

    def reset_stats(self):
        for cache in self.levels:
            cache.stats.reset()
        self.stats.reset()

    # --- snapshot support -------------------------------------------------

    def capture(self) -> tuple:
        """Clone every level's tag state plus DRAM counters."""
        return ([cache.capture() for cache in self.levels],
                self.stats.capture())

    def restore(self, state: tuple):
        levels, stats = state
        if len(levels) != len(self.levels):
            raise ValueError("snapshot level count mismatch")
        for cache, level_state in zip(self.levels, levels):
            cache.restore(level_state)
        self.stats.restore(stats)
