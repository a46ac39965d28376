import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import Cache, CacheConfig, line_of


def small_cache(ways=2, sets=4):
    return Cache(CacheConfig("T", size_bytes=ways * sets * 64, ways=ways,
                             latency=4))


def test_line_of():
    assert line_of(0) == 0
    assert line_of(63) == 0
    assert line_of(64) == 64
    assert line_of(0x12345) == 0x12340


def test_geometry_validation():
    with pytest.raises(ValueError):
        Cache(CacheConfig("bad", size_bytes=100, ways=3, latency=1))


def test_miss_then_hit():
    cache = small_cache()
    assert not cache.lookup(0x1000)
    cache.insert(0x1000)
    assert cache.lookup(0x1000)
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1


def test_same_line_shares_entry():
    cache = small_cache()
    cache.insert(0x1000)
    assert cache.lookup(0x1038)  # same 64B line


def test_eviction_on_conflict():
    cache = small_cache(ways=2, sets=1)
    cache.insert(0x0)
    cache.insert(0x40)
    evicted = cache.insert(0x80)
    assert evicted == 0x0
    assert not cache.contains(0x0)
    assert cache.contains(0x40) and cache.contains(0x80)


def test_lru_order_respected():
    cache = small_cache(ways=2, sets=1)
    cache.insert(0x0)
    cache.insert(0x40)
    cache.lookup(0x0)          # refresh
    evicted = cache.insert(0x80)
    assert evicted == 0x40


@given(st.lists(st.tuples(st.sampled_from(["insert", "insert", "lookup",
                                           "invalidate"]),
                          st.integers(min_value=0, max_value=5)),
                min_size=12, max_size=200))
@settings(max_examples=100, deadline=None)
def test_lru_matches_ordered_list_model(ops):
    """One set of a 4-way cache agrees with an ordered-list LRU model:
    hit or miss on every lookup, the line each fill evicts (returned
    and heard by ``on_evict``), and a new line taking the lowest free
    way, else the victim's way."""
    cache = small_cache(ways=4, sets=2)
    heard = []
    cache.on_evict = lambda line, dirty: heard.append(line)
    model = []   # resident lines, least recently used first
    ways = {}    # resident line -> way
    for op, line_no in ops:
        line = line_no * 2 * 64          # every line maps to set 0
        heard.clear()
        resident = line in model
        if op == "lookup":
            assert cache.lookup(line) == resident
            assert heard == []
            if resident:
                model.remove(line)
                model.append(line)
        elif op == "insert":
            victim = None
            if resident:
                model.remove(line)
            elif len(model) == 4:
                victim = model.pop(0)
                ways[line] = ways.pop(victim)
            else:
                ways[line] = min(set(range(4)) - set(ways.values()))
            model.append(line)
            assert cache.insert(line) == victim
            assert heard == ([] if victim is None else [victim])
        else:
            assert cache.invalidate(line) == resident
            assert heard == ([line] if resident else [])
            if resident:
                model.remove(line)
                del ways[line]
        assert cache.resident_lines() == sorted(model)
        for resident_line, way in ways.items():
            assert cache.locate(resident_line) == (0, way)


def test_invalidate():
    cache = small_cache()
    cache.insert(0x1000)
    assert cache.invalidate(0x1000)
    assert not cache.contains(0x1000)
    assert not cache.invalidate(0x1000)
    assert cache.stats.invalidations == 1


def test_flush_all():
    cache = small_cache()
    for i in range(8):
        cache.insert(i * 64)
    cache.flush_all()
    assert len(cache) == 0


def test_dirty_tracking_via_observer():
    events = []
    cache = small_cache(ways=1, sets=1)
    cache.on_evict = lambda line, dirty: events.append((line, dirty))
    cache.insert(0x0, dirty=False)
    cache.lookup(0x0, is_write=True)   # mark dirty
    cache.insert(0x40)                 # evicts dirty line 0
    assert events == [(0x0, True)]


def test_observer_fires_on_invalidate():
    events = []
    cache = small_cache()
    cache.on_evict = lambda line, dirty: events.append(line)
    cache.insert(0x1000)
    cache.invalidate(0x1000)
    assert events == [line_of(0x1000)]


def test_insert_existing_refreshes_not_evicts():
    cache = small_cache(ways=2, sets=1)
    cache.insert(0x0)
    cache.insert(0x40)
    assert cache.insert(0x0) is None   # refresh
    evicted = cache.insert(0x80)
    assert evicted == 0x40


def test_lines_mapping_to_same_set():
    cache = small_cache(ways=4, sets=8)
    target = 0x1040
    eviction_set = cache.lines_mapping_to(target, 4)
    assert len(eviction_set) == 4
    for line in eviction_set:
        assert cache.set_index(line) == cache.set_index(target)
        assert line != line_of(target)


def test_lines_mapping_to_skips_target_above_stride_base():
    """Regression: a target at or above ``stride_base`` used to appear
    in its own eviction set (the stride walk lands exactly on it)."""
    cache = small_cache(ways=4, sets=8)
    stride_base = 0x4000
    span = 8 * 64                      # sets << line_shift
    target = stride_base + 2 * span + 0x40   # on the stride walk, set 1
    eviction_set = cache.lines_mapping_to(target, 4,
                                          stride_base=stride_base)
    assert len(eviction_set) == 4
    assert line_of(target) not in eviction_set
    assert len(set(eviction_set)) == 4
    for line in eviction_set:
        assert cache.set_index(line) == cache.set_index(target)


def test_resident_lines_sorted():
    cache = small_cache()
    cache.insert(0x2000)
    cache.insert(0x1000)
    assert cache.resident_lines() == [0x1000, 0x2000]


@given(st.lists(st.tuples(st.sampled_from(["insert", "invalidate"]),
                          st.integers(min_value=0, max_value=63)),
                max_size=300))
@settings(max_examples=40, deadline=None)
def test_capacity_invariant(ops):
    """The cache never holds more lines than its capacity, and its
    line index stays consistent with the tag array."""
    cache = small_cache(ways=2, sets=4)
    capacity = 2 * 4
    for op, line_no in ops:
        addr = line_no * 64
        if op == "insert":
            cache.insert(addr)
        else:
            cache.invalidate(addr)
        assert len(cache) <= capacity
    for line in cache.resident_lines():
        assert cache.contains(line)
