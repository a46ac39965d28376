"""The warm-start cache and the machine collector are per thread.

A cached machine is mutable state: two threads handed the same one
(two jobs of one job server, each on its own thread) corrupt each
other's runs or hang.
"""

import sys
import threading
import time

from repro.cpu.machine import Machine
from repro.evaluation.matrix import _cell_trial
from repro.harness import derive_seed
from repro.observability import collect_machines
from repro.snapshot import cache_size, clear_cache, warm_start

#: Two cells whose runs share one warm-start key.
CELLS = [("port-contention", defense, {"measurements": 200})
         for defense in ("none", "dejavu")]


def _run_in_threads(targets, timeout=120.0):
    """Run each target on its own daemon thread; return the threads
    still alive after *timeout* seconds in total."""
    threads = [threading.Thread(target=t, daemon=True) for t in targets]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + timeout
    for thread in threads:
        thread.join(max(deadline - time.monotonic(), 0.0))
    return [t for t in threads if t.is_alive()]


def test_concurrent_cells_match_sequential_runs():
    seeds = [derive_seed(0, i, "threads") for i in range(len(CELLS))]
    sequential = [_cell_trial(c, s) for c, s in zip(CELLS, seeds)]
    results = {}

    def cell(i):
        return lambda: results.update({i: _cell_trial(CELLS[i],
                                                      seeds[i])})

    assert _run_in_threads([cell(0), cell(1)]) == [], "a cell hung"
    assert [results[0], results[1]] == sequential


def test_each_thread_builds_its_own_environment():
    clear_cache()
    warm_start("per-thread", lambda: (Machine(), None))
    seen = {}

    def worker(name):
        def run():
            first, _ = warm_start("per-thread", lambda: (Machine(), None))
            again, _ = warm_start("per-thread", lambda: (Machine(), None))
            seen[name] = (first, again is first, cache_size())
        return run

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more workers than cores, often switched
    try:
        alive = _run_in_threads([worker(n) for n in range(8)])
    finally:
        sys.setswitchinterval(interval)
    assert alive == []
    assert all(seen[n][1:] == (True, 1) for n in range(8))
    assert len({id(seen[n][0]) for n in range(8)}) == 8  # none shared
    assert cache_size() == 1  # the calling thread's own entry
    clear_cache()
    assert cache_size() == 0


def test_collector_sees_only_its_own_thread():
    with collect_machines() as machines:
        assert _run_in_threads([Machine]) == []
        mine = Machine()
    assert machines == [mine]
