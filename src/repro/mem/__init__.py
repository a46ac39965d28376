"""Memory substrate: physical memory, caches and the hierarchy."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.mem.physical import FRAME_SHIFT, FRAME_SIZE, PhysicalMemory
    from repro.mem.cache import Cache, CacheConfig, CacheStats, LINE_SIZE, line_of
    from repro.mem.hierarchy import DRAM_LEVEL, HierarchyConfig, MemoryHierarchy

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.mem.physical": ("FRAME_SHIFT", "FRAME_SIZE", "PhysicalMemory"),
    "repro.mem.cache": (
        "Cache", "CacheConfig", "CacheStats", "LINE_SIZE", "line_of"),
    "repro.mem.hierarchy": (
        "DRAM_LEVEL", "HierarchyConfig", "MemoryHierarchy"),
})

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
