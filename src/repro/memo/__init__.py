"""Deterministic compute cache: the on-disk trial store.

The harness seed lineage makes every sweep trial a pure function of
its parameters, so an identical trial need only be computed once.
:class:`TrialStore` (:mod:`repro.memo.store`) is a persistent on-disk
store addressed by SHA-256 of (trial function fingerprint, canonical
parameters, derived seed) — see :func:`trial_key` in
:mod:`repro.memo.keys`.  It plugs in under
:func:`repro.harness.run_resilient_sweep`, the
:class:`repro.Experiment` facade and the evaluation matrix, so
re-running an unchanged configuration is near-instant and safe across
processes.

The store is sound by construction: keys cover everything the outcome
depends on, anything unkeyable (:class:`Unmemoizable`) runs uncached,
and any poisoned entry degrades to a recompute with a counter bump.

Replay windows are deliberately not cached: MicroScope replays a
window by faulting it again, and each replay starts from a different
machine state (recipe progress, primed lines, walk tuning), so a
cache keyed on the platform state would never hit.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.memo.keys import (
        Unmemoizable,
        canonical,
        canonical_json,
        digest_of,
        fingerprint_callable,
        trial_key,
    )
    from repro.memo.store import (
        CACHE_DIR_ENV,
        STORE_VERSION,
        TrialStore,
        resolve_store,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.memo.keys": (
        "Unmemoizable", "canonical", "canonical_json", "digest_of",
        "fingerprint_callable", "trial_key"),
    "repro.memo.store": (
        "CACHE_DIR_ENV", "STORE_VERSION", "TrialStore", "resolve_store"),
})

__all__ = [
    "CACHE_DIR_ENV",
    "STORE_VERSION",
    "TrialStore",
    "Unmemoizable",
    "canonical",
    "canonical_json",
    "digest_of",
    "fingerprint_callable",
    "resolve_store",
    "trial_key",
]
