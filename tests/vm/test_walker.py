import pytest

from repro.kernel.frames import FrameAllocator
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.physical import PhysicalMemory
from repro.vm.pagetable import PTE_ACCESSED, PTE_DIRTY, PageTables, entry_flags
from repro.vm.pwc import PageWalkCache
from repro.vm.walker import PageWalker


@pytest.fixture
def setup():
    phys = PhysicalMemory(4096)
    frames = FrameAllocator(4096)
    hierarchy = MemoryHierarchy()
    pwc = PageWalkCache()
    walker = PageWalker(phys, hierarchy, pwc)
    tables = PageTables(phys, frames.allocate)
    return phys, frames, hierarchy, pwc, walker, tables


def test_successful_walk(setup):
    _phys, frames, _h, _pwc, walker, tables = setup
    frame = frames.allocate()
    tables.map(0x10000, frame)
    result = walker.walk(1, tables.root_frame, 0x10000)
    assert not result.faulted
    assert result.frame == frame
    assert len(result.steps) == 4


def test_walk_latency_cold_vs_warm(setup):
    """A cold walk pays DRAM per level; a warm one hits the PWC and
    the caches — the Replayer's §4.1.2 tuning range."""
    _phys, frames, _h, _pwc, walker, tables = setup
    tables.map(0x10000, frames.allocate())
    cold = walker.walk(1, tables.root_frame, 0x10000)
    warm = walker.walk(1, tables.root_frame, 0x10000)
    assert cold.latency > 1000
    assert warm.latency < 30
    assert warm.pwc_hits == 3


def test_fault_on_clear_present(setup):
    _phys, frames, _h, _pwc, walker, tables = setup
    tables.map(0x10000, frames.allocate())
    tables.set_present(0x10000, False)
    result = walker.walk(1, tables.root_frame, 0x10000)
    assert result.faulted
    assert result.fault.level == 3
    assert result.frame is None
    assert walker.stats.faults == 1


def test_fault_on_missing_upper_level(setup):
    _phys, _frames, _h, _pwc, walker, tables = setup
    result = walker.walk(1, tables.root_frame, 0x7FFF00000000)
    assert result.faulted
    assert result.fault.level == 0
    assert len(result.steps) == 1


def test_fault_carries_metadata(setup):
    _phys, frames, _h, _pwc, walker, tables = setup
    tables.map(0x10000, frames.allocate())
    tables.set_present(0x10000, False)
    result = walker.walk(1, tables.root_frame, 0x10000,
                         is_write=True, pc=42, context_id=1)
    assert result.fault.is_write
    assert result.fault.pc == 42
    assert result.fault.context_id == 1
    assert result.fault.page_aligned_va == 0x10000
    assert result.fault.vpn == 0x10


def test_accessed_dirty_bits_set(setup):
    phys, frames, _h, _pwc, walker, tables = setup
    tables.map(0x10000, frames.allocate())
    walker.walk(1, tables.root_frame, 0x10000)
    leaf = tables.software_walk(0x10000).pte
    assert entry_flags(leaf.entry) & PTE_ACCESSED
    assert not entry_flags(leaf.entry) & PTE_DIRTY
    walker.walk(1, tables.root_frame, 0x10000, is_write=True)
    leaf = tables.software_walk(0x10000).pte
    assert entry_flags(leaf.entry) & PTE_DIRTY


def test_walk_fills_caches(setup):
    """PTE lines land in the data caches — the state the Replayer
    flushes between replays."""
    _phys, frames, hierarchy, _pwc, walker, tables = setup
    tables.map(0x10000, frames.allocate())
    walker.walk(1, tables.root_frame, 0x10000)
    leaf_paddr = tables.leaf_entry_paddr(0x10000)
    assert hierarchy.peek_level(leaf_paddr) == 0


def test_flushed_pte_lines_lengthen_walk(setup):
    _phys, frames, hierarchy, pwc, walker, tables = setup
    tables.map(0x10000, frames.allocate())
    walker.walk(1, tables.root_frame, 0x10000)
    # Flush leaf PTE line only: walk pays one DRAM trip.
    leaf_paddr = tables.leaf_entry_paddr(0x10000)
    hierarchy.flush_line(leaf_paddr)
    partial = walker.walk(1, tables.root_frame, 0x10000)
    assert 300 < partial.latency < 600


def test_stats_accumulate(setup):
    _phys, frames, _h, _pwc, walker, tables = setup
    tables.map(0x10000, frames.allocate())
    walker.walk(1, tables.root_frame, 0x10000)
    walker.walk(1, tables.root_frame, 0x10000)
    assert walker.stats.walks == 2
    assert walker.stats.total_latency > 0
