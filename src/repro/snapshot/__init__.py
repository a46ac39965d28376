"""Machine snapshot/restore for warm-started replay experiments.

See :mod:`repro.snapshot.machine` for the snapshot composition and
:mod:`repro.snapshot.cache` for the per-worker warm-start cache used
by the sweep harness.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.snapshot.cache import (
        WarmKey,
        cache_size,
        clear_cache,
        warm_key,
        warm_start,
    )
    from repro.snapshot.machine import (
        SNAPSHOT_VERSION,
        MachineSnapshot,
        SnapshotError,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.snapshot.cache": (
        "WarmKey", "cache_size", "clear_cache", "warm_key", "warm_start"),
    "repro.snapshot.machine": (
        "SNAPSHOT_VERSION", "MachineSnapshot", "SnapshotError"),
})

__all__ = [
    "MachineSnapshot",
    "SnapshotError",
    "SNAPSHOT_VERSION",
    "WarmKey",
    "cache_size",
    "clear_cache",
    "warm_key",
    "warm_start",
]
