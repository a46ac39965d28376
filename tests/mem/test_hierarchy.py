import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import CacheConfig
from repro.mem.hierarchy import DRAM_LEVEL, HierarchyConfig, MemoryHierarchy


def tiny_hierarchy():
    return MemoryHierarchy(HierarchyConfig(
        levels=(
            CacheConfig("L1D", size_bytes=2 * 64 * 2, ways=2, latency=4),
            CacheConfig("L2", size_bytes=4 * 64 * 4, ways=4, latency=12),
        ),
        dram_latency=200,
    ))


def test_default_config_builds():
    hierarchy = MemoryHierarchy()
    assert [c.name for c in hierarchy.levels] == ["L1D", "L2", "L3"]


def test_cold_miss_costs_full_path():
    h = tiny_hierarchy()
    assert h.access(0x1000) == 4 + 12 + 200
    assert h.stats.dram_accesses == 1


def test_hit_after_fill():
    h = tiny_hierarchy()
    h.access(0x1000)
    assert h.access(0x1000) == 4
    assert h.peek_level(0x1000) == 0


def test_l2_hit_refills_l1():
    h = tiny_hierarchy()
    h.access(0x1000)
    h.level_named("L1D").invalidate(0x1000)
    assert h.peek_level(0x1000) == 1
    assert h.access(0x1000) == 4 + 12
    assert h.peek_level(0x1000) == 0


def test_flush_line_removes_everywhere():
    h = tiny_hierarchy()
    h.access(0x1000)
    h.flush_line(0x1000)
    assert h.peek_level(0x1000) == DRAM_LEVEL


def test_flush_range():
    h = tiny_hierarchy()
    for offset in range(0, 256, 64):
        h.access(0x2000 + offset)
    h.flush_range(0x2000, 256)
    for offset in range(0, 256, 64):
        assert h.peek_level(0x2000 + offset) == DRAM_LEVEL


def test_flush_range_unaligned_start_covers_first_line():
    """A start address inside a line must still flush that line."""
    h = tiny_hierarchy()
    h.access(0x2000)
    h.access(0x2040)
    h.flush_range(0x2008, 0x40)     # spans the tail of line 0x2000
    assert h.peek_level(0x2000) == DRAM_LEVEL
    assert h.peek_level(0x2040) == DRAM_LEVEL


def test_flush_range_unaligned_size_covers_last_line():
    """A range ending mid-line must flush the line it ends inside."""
    h = tiny_hierarchy()
    for offset in range(0, 0x100, 64):
        h.access(0x2000 + offset)
    h.flush_range(0x2000, 0x81)     # one byte into the third line
    for offset in (0x0, 0x40, 0x80):
        assert h.peek_level(0x2000 + offset) == DRAM_LEVEL
    assert h.peek_level(0x20c0) == 0   # untouched fourth line


def test_flush_range_zero_size_is_noop():
    h = tiny_hierarchy()
    h.access(0x2000)
    h.flush_range(0x2000, 0)
    assert h.peek_level(0x2000) == 0


def test_hit_latency_table():
    h = tiny_hierarchy()
    assert h.hit_latency(0) == 4
    assert h.hit_latency(1) == 16
    assert h.hit_latency(DRAM_LEVEL) == 4 + 12 + 200


def test_eviction_victim_moves_down():
    h = tiny_hierarchy()
    # L1 set has 2 ways; touch 3 conflicting lines.
    l1 = h.l1
    lines = l1.lines_mapping_to(0x0, 3)
    for line in lines:
        h.access(line)
    # The first line was evicted from L1 but should live in L2.
    assert h.peek_level(lines[0]) == 1


def test_prime_set_with_evicts_target():
    h = tiny_hierarchy()
    target = 0x3000
    h.access(target)
    h.prime_set_with(target, level=0)
    assert not h.l1.contains(target)


def test_touch_sums_latency():
    h = tiny_hierarchy()
    total = h.touch([0x100, 0x100])
    assert total == (4 + 12 + 200) + 4


def test_reset_stats():
    h = tiny_hierarchy()
    h.access(0x100)
    h.reset_stats()
    assert h.stats.dram_accesses == 0
    assert h.l1.stats.misses == 0


def test_reset_stats_keeps_resident_lines():
    """Counter resets must not disturb cache contents: the next access
    to a resident line is still a pure L1 hit."""
    h = tiny_hierarchy()
    h.access(0x100)
    h.access(0x2000)
    h.reset_stats()
    assert h.l1.contains(0x100)
    assert h.l1.contains(0x2000)
    assert h.access(0x100) == h.hit_latency(0)
    assert h.l1.stats.hits == 1
    assert h.l1.stats.misses == 0
    assert h.stats.dram_accesses == 0


def test_level_named_unknown():
    h = tiny_hierarchy()
    with pytest.raises(KeyError):
        h.level_named("L9")


def test_writes_mark_l1_dirty_and_writeback_path():
    h = tiny_hierarchy()
    h.access(0x4000, is_write=True)
    # Evict it via conflicting fills; the dirty line should land in L2.
    for line in h.l1.lines_mapping_to(0x4000, 2):
        h.access(line)
    assert h.peek_level(0x4000) == 1


# --- the tag store holds only the sets a level has filled ---------------


def filled_sets(hierarchy):
    """Per level, the set indices its captured tag store holds."""
    sets = []
    for tags, dirty, lru, _where, _stats in hierarchy.capture()[0]:
        assert tags.keys() == dirty.keys() == lru.keys()
        sets.append(set(tags))
    return sets


def test_fresh_hierarchy_holds_no_per_set_state():
    hierarchy = MemoryHierarchy()
    for tags, dirty, lru, where, _stats in hierarchy.capture()[0]:
        assert tags == dirty == lru == where == {}


def test_capture_holds_only_the_touched_sets():
    hierarchy = MemoryHierarchy()
    lines = [0x10_0000 + n * 0x1040 for n in range(12)]
    hierarchy.touch(lines)
    assert filled_sets(hierarchy) == [
        {cache.set_index(line) for line in lines}
        for cache in hierarchy.levels]


def test_restore_drops_sets_first_filled_after_the_capture():
    hierarchy = MemoryHierarchy()
    hierarchy.touch([0x10_0000, 0x10_0040])
    snapshot = hierarchy.capture()
    before = filled_sets(hierarchy)
    late = 0x20_0000 + 17 * 64
    assert all(cache.set_index(late) not in sets
               for cache, sets in zip(hierarchy.levels, before))
    hierarchy.access(late)
    hierarchy.restore(snapshot)
    assert filled_sets(hierarchy) == before
    assert not any(cache.contains(late) for cache in hierarchy.levels)
    assert hierarchy.capture() == snapshot


def _replay(hierarchy, accesses, log):
    """Run *accesses*; log each one's latency and every level's
    ``locate()`` answer for its line."""
    for line, is_write in accesses:
        latency = hierarchy.access(line, is_write=is_write)
        log.append((latency,
                    [cache.locate(line) for cache in hierarchy.levels]))


def _logged(hierarchy):
    log = []
    for i, cache in enumerate(hierarchy.levels):
        cache.on_evict = (
            lambda line, dirty, i=i: log.append(("evict", i, line, dirty)))
    return log


_accesses = st.lists(
    st.tuples(st.integers(min_value=0, max_value=47).map(lambda n: n * 64),
              st.booleans()),
    max_size=60)


@given(prefix=_accesses, detour=_accesses, suffix=_accesses)
@settings(max_examples=60, deadline=None)
def test_run_after_restore_matches_uninterrupted_run(prefix, detour, suffix):
    """prefix, capture, detour, restore, suffix gives the same hits,
    evictions and ``locate()`` answers in the suffix as prefix then
    suffix without the detour, on every restore of the one capture."""
    straight = tiny_hierarchy()
    straight_log = _logged(straight)
    _replay(straight, prefix, straight_log)
    del straight_log[:]
    _replay(straight, suffix, straight_log)

    rewound = tiny_hierarchy()
    rewound_log = _logged(rewound)
    _replay(rewound, prefix, rewound_log)
    snapshot = rewound.capture()
    _replay(rewound, detour, rewound_log)
    for _ in range(2):
        rewound.restore(snapshot)
        del rewound_log[:]
        _replay(rewound, suffix, rewound_log)
        assert rewound_log == straight_log
        assert rewound.capture() == straight.capture()


# --- model test: the hierarchy against a plain reference -------------------


class _ReferenceLevel:
    """One level as plain per-set lists of line addresses, least
    recently used first; a fill takes the lowest free way."""

    def __init__(self, config, evicted):
        self.name = config.name
        self.latency = config.latency
        self.ways = config.ways
        self.num_sets = config.size_bytes // (config.ways * 64)
        self.order = {}      # set index -> lines, LRU first
        self.way_of = {}     # line -> way
        self.dirty = {}      # line -> dirty bit
        self.stats = dict.fromkeys(
            ("hits", "misses", "evictions", "invalidations"), 0)
        self.evicted = evicted   # (level, line, was_dirty) of every level

    def _set(self, line):
        return self.order.setdefault((line // 64) % self.num_sets, [])

    def lookup(self, line, is_write):
        if line not in self.way_of:
            self.stats["misses"] += 1
            return False
        lines = self._set(line)
        lines.remove(line)
        lines.append(line)
        if is_write:
            self.dirty[line] = True
        self.stats["hits"] += 1
        return True

    def insert(self, line, dirty):
        lines = self._set(line)
        if line in self.way_of:
            lines.remove(line)
            lines.append(line)
            if dirty:
                self.dirty[line] = True
            return None
        victim = None
        if len(lines) == self.ways:
            victim = lines.pop(0)
            way = self.way_of.pop(victim)
            self.stats["evictions"] += 1
            self.evicted.append((self.name, victim, self.dirty.pop(victim)))
        else:
            used = {self.way_of[other] for other in lines}
            way = min(set(range(self.ways)) - used)
        lines.append(line)
        self.way_of[line] = way
        self.dirty[line] = dirty
        return victim

    def invalidate(self, line):
        if line not in self.way_of:
            return
        self._set(line).remove(line)
        del self.way_of[line]
        self.stats["invalidations"] += 1
        self.evicted.append((self.name, line, self.dirty.pop(line)))

    def locate(self, line):
        if line not in self.way_of:
            return None
        return ((line // 64) % self.num_sets, self.way_of[line])


class _ReferenceHierarchy:
    """Search top-down; fill every level above the hit, lowest first,
    each victim moving down one level."""

    def __init__(self, config):
        self.evicted = []
        self.levels = [_ReferenceLevel(level, self.evicted)
                       for level in config.levels]
        self.dram_latency = config.dram_latency
        self.dram_accesses = 0
        self.heard = []

    def access(self, paddr, is_write):
        line = paddr - paddr % 64
        latency = 0
        hit_level = len(self.levels)
        for i, level in enumerate(self.levels):
            latency += level.latency
            if level.lookup(line, is_write and i == 0):
                hit_level = i
                break
        else:
            latency += self.dram_latency
            self.dram_accesses += 1
        for i in reversed(range(hit_level)):
            victim = self.levels[i].insert(line, is_write and i == 0)
            if victim is not None and i + 1 < len(self.levels):
                self.levels[i + 1].insert(victim, False)
        self.heard.append((paddr, is_write, hit_level, latency))
        return latency

    def flush_line(self, paddr):
        for level in self.levels:
            level.invalidate(paddr - paddr % 64)


def _model_config():
    return HierarchyConfig(
        levels=(
            CacheConfig("L1D", size_bytes=2 * 2 * 64, ways=2, latency=4),
            CacheConfig("L2", size_bytes=2 * 4 * 64, ways=4, latency=12),
            CacheConfig("L3", size_bytes=2 * 4 * 64, ways=4, latency=40),
        ),
        dram_latency=200)


_paddrs = st.builds(lambda line, offset: line * 64 + offset,
                    st.integers(min_value=0, max_value=23),
                    st.integers(min_value=0, max_value=63))
_operations = st.lists(st.one_of(
    st.tuples(st.just("access"), _paddrs, st.booleans()),
    st.tuples(st.just("flush_line"), _paddrs),
    st.tuples(st.just("flush_lines"), st.lists(_paddrs, max_size=6)),
), max_size=80)


@given(operations=_operations)
@settings(max_examples=150, deadline=None)
def test_hierarchy_matches_a_plain_reference(operations):
    """Latencies, what ``on_mem_access`` observers hear, ``locate()``,
    every level's counters and the ``on_evict`` calls of all levels, in
    order, match the reference."""
    config = _model_config()
    hierarchy = MemoryHierarchy(config)
    reference = _ReferenceHierarchy(config)
    heard = []
    hierarchy._on_mem_access = (lambda *event: heard.append(event),)
    evicted = []
    for cache in hierarchy.levels:
        cache.on_evict = lambda line, dirty, name=cache.name: \
            evicted.append((name, line, dirty))
    for operation in operations:
        if operation[0] == "access":
            _, paddr, is_write = operation
            assert hierarchy.access(paddr, is_write) \
                == reference.access(paddr, is_write)
        elif operation[0] == "flush_line":
            hierarchy.flush_line(operation[1])
            reference.flush_line(operation[1])
        else:
            hierarchy.flush_lines(operation[1])
            for paddr in operation[1]:
                reference.flush_line(paddr)
        for line in range(0, 24 * 64, 64):
            assert [cache.locate(line) for cache in hierarchy.levels] \
                == [level.locate(line) for level in reference.levels]
    assert heard == reference.heard
    assert evicted == reference.evicted
    assert hierarchy.stats.dram_accesses == reference.dram_accesses
    for cache, level in zip(hierarchy.levels, reference.levels):
        assert cache.stats.capture() == tuple(
            level.stats[name] for name in cache.stats.FIELDS), cache.name
