"""Memory substrate: physical memory, caches and the hierarchy."""

from repro.mem.physical import FRAME_SHIFT, FRAME_SIZE, PhysicalMemory
from repro.mem.cache import Cache, CacheConfig, CacheStats, LINE_SIZE, line_of
from repro.mem.hierarchy import DRAM_LEVEL, HierarchyConfig, MemoryHierarchy

__all__ = [
    "FRAME_SHIFT",
    "FRAME_SIZE",
    "PhysicalMemory",
    "Cache",
    "CacheConfig",
    "CacheStats",
    "LINE_SIZE",
    "line_of",
    "DRAM_LEVEL",
    "HierarchyConfig",
    "MemoryHierarchy",
]
