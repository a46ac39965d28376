"""Per-worker snapshot cache for warm-started experiment sweeps.

Sweep trial functions (:mod:`repro.harness`) run in forked worker
processes, and each trial historically paid the full cost of
``AttackEnvironment.build`` + victim setup + launch.  This cache keeps
one built environment and its post-setup :class:`MachineSnapshot` per
*builder key* in the worker process; every trial after the first simply
rewinds the cached environment to the snapshot — the amortization that
turns N-trial sweeps from O(N · full-run) into O(setup + N · window).

Keys must be deterministic functions of the experiment parameters
(e.g. the harness' derived seed plus the victim configuration) so that
a cache hit is guaranteed to mean "bit-identical starting state".
Workers created by fork inherit the forking thread's cache; builds
after the fork stay private to each worker, which is exactly the
per-worker semantics the harness needs.

The cache is thread-local, like the active oracle in
:mod:`repro.oracle.runtime`: a cached machine is mutable state, so two
threads (say, two jobs of one job server) must never be handed the
same one.  Each thread builds and rewinds its own.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Tuple

from repro.snapshot.machine import MachineSnapshot

_local = threading.local()


def _cache() -> Dict[object, Tuple[object, object, MachineSnapshot]]:
    """This thread's key -> (environment, builder payload, post-setup
    snapshot) map."""
    cache = getattr(_local, "cache", None)
    if cache is None:
        cache = _local.cache = {}
    return cache


def warm_start(key, builder: Callable[[], Tuple[object, object]]
               ) -> Tuple[object, object]:
    """Return ``(env, payload)`` positioned at the post-setup snapshot.

    *builder* is invoked once per key per thread of each process and must
    return ``(env, payload)``: the environment to snapshot (anything
    :meth:`MachineSnapshot.take` accepts) and an arbitrary payload of
    setup artifacts (processes, programs, addresses...) the trial needs
    alongside it.  On a hit, the cached environment is rewound to the
    snapshot before being returned, so every call observes the same
    bit-exact machine state.
    """
    cache = _cache()
    entry = cache.get(key)
    if entry is None:
        env, payload = builder()
        cache[key] = (env, payload, MachineSnapshot.take(env))
        return env, payload
    env, payload, snapshot = entry
    snapshot.restore(env)
    return env, payload


def cache_size() -> int:
    """How many environments the calling thread's cache holds."""
    return len(_cache())


def clear_cache():
    """Drop every environment cached by the calling thread (tests and
    memory pressure); other threads' caches are untouched."""
    _cache().clear()
