"""Per-worker snapshot cache for warm-started experiment sweeps.

Sweep trial functions (:mod:`repro.harness`) run in forked worker
processes, and each trial historically paid the full cost of
``AttackEnvironment.build`` + victim setup + launch.  This cache keeps
one built environment and its post-setup :class:`MachineSnapshot` per
*builder key* in the worker process; every trial after the first simply
rewinds the cached environment to the snapshot — the amortization that
turns N-trial sweeps from O(N · full-run) into O(setup + N · window).

Keys must be deterministic functions of everything the builder reads,
so that a cache hit is guaranteed to mean "bit-identical starting
state".  :func:`warm_key` makes such a key from the object that owns
the builder.
Workers created by fork inherit the forking thread's cache; builds
after the fork stay private to each worker, which is exactly the
per-worker semantics the harness needs.

The cache is thread-local, like the active oracle in
:mod:`repro.oracle.runtime`: a cached machine is mutable state, so two
threads (say, two jobs of one job server) must never be handed the
same one.  Each thread builds and rewinds its own.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from repro.snapshot.machine import MachineSnapshot

_local = threading.local()


def _cache() -> Dict[object, Tuple[object, object, MachineSnapshot]]:
    """This thread's key -> (environment, builder payload, post-setup
    snapshot) map."""
    cache = getattr(_local, "cache", None)
    if cache is None:
        cache = _local.cache = {}
    return cache


class WarmKey(NamedTuple):
    """What a warm-start snapshot was built from."""

    #: ``module.Class.method`` of the builder, named through the owner's
    #: own class: a subclass that overrides any step of the build gets
    #: snapshots of its own.
    builder: str
    #: Canonical JSON (:func:`repro.memo.keys.canonical_json`) of every
    #: input the builder reads, by name.
    inputs: str
    #: Inputs a trial rewrites in the restored environment (the AES
    #: ciphertext, the Fig. 10 secret): the snapshot does not depend on
    #: them, so they are left out of :attr:`inputs`.
    rewritten: Tuple[str, ...]


def warm_key(owner: object, builder: str, *,
             reads: Optional[Sequence[str]] = None,
             rewrites: Sequence[str] = (), **args) -> WarmKey:
    """The :func:`warm_start` key of *owner*'s method *builder*.

    *reads* names the attributes of *owner* the builder reads; for a
    dataclass it defaults to every field, so a field added later is
    keyed without anyone listing it.  Names in *rewrites* are left out
    of the inputs and recorded in the key.  *args* are builder inputs
    that are not attributes of *owner* (a calibration's sample count).
    """
    # Deferred: the canonical form is needed once per trial, and the
    # attack modules that import this one never key a trial themselves.
    from repro.memo.keys import canonical_json
    if reads is None:
        if not dataclasses.is_dataclass(owner):
            raise TypeError(
                f"{type(owner).__qualname__} is not a dataclass: name "
                f"the attributes its builder {builder!r} reads")
        reads = [f.name for f in dataclasses.fields(owner)]
    inputs = {name: getattr(owner, name) for name in reads
              if name not in rewrites}
    clash = inputs.keys() & args.keys()
    if clash:
        raise ValueError(f"builder inputs named twice: {sorted(clash)}")
    inputs.update(args)
    cls = type(owner)
    return WarmKey(f"{cls.__module__}.{cls.__qualname__}.{builder}",
                   canonical_json(inputs), tuple(rewrites))


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
