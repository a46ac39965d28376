"""LRU replacement as the cache does it: one recency list per set."""
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import Cache, CacheConfig

WAYS = 4


def one_set_cache(ways=WAYS):
    """A cache whose lines ``n * 64`` all fall in its single set."""
    return Cache(CacheConfig("T", size_bytes=ways * 64, ways=ways,
                             latency=4))


def test_lru_prefers_free_ways():
    cache = one_set_cache()
    cache.insert(0x0)
    cache.insert(0x40)
    cache.invalidate(0x0)            # way 0 is free again
    assert cache.insert(0x80) is None
    assert cache.locate(0x80) == (0, 0)
    assert cache.locate(0x40) == (0, 1)


def test_lru_evicts_least_recent():
    cache = one_set_cache()
    for n in range(WAYS):
        cache.insert(n * 64)
    assert cache.lookup(0x0)         # refresh the first fill
    assert cache.insert(WAYS * 64) == 0x40
    assert cache.locate(WAYS * 64) == (0, 1)


def test_lru_invalidate_removes_from_order():
    cache = one_set_cache()
    for n in range(WAYS):
        cache.insert(n * 64)
    assert cache.invalidate(0x0)
    assert not cache.contains(0x0)
    # The freed way fills first; only then does the next fill evict the
    # least recent survivor, never the invalidated line a second time.
    assert cache.insert(WAYS * 64) is None
    assert cache.insert((WAYS + 1) * 64) == 0x40


@given(st.lists(st.integers(min_value=0, max_value=7), min_size=1,
                max_size=200))
@settings(max_examples=50, deadline=None)
def test_lru_matches_reference_model(accesses):
    """An 8-way set agrees with an ordered-list reference."""
    cache = one_set_cache(ways=8)
    reference = []  # most recent last
    for n in accesses:
        line = n * 64
        if not cache.lookup(line):
            assert cache.insert(line) is None   # never more than 8 lines
        if line in reference:
            reference.remove(line)
        reference.append(line)
    if len(reference) == 8:
        assert cache.insert(8 * 64) == reference[0]
