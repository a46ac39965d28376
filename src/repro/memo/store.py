"""The content-addressed trial store.

A sweep trial is a pure function of ``(trial function, parameters,
derived seed)`` — the harness determinism contract the chaos suite
proves.  :class:`TrialStore` therefore addresses every completed trial
by :func:`repro.memo.keys.trial_key` and persists it on disk, so any
later sweep — another process, another worker count, another day —
that reaches the same key loads the result instead of recomputing it.
A sweep keys its trials through one
:func:`~repro.memo.keys.trial_keyer` per session, which hashes the
trial function's fingerprint once and each trial's params in one
walk.  Records written under an earlier key layout are never
addressed again: a store from before it recomputes each trial once.

A record is one ASCII header line and the raw pickle of the result::

    trial <STORE_VERSION> <SNAPSHOT_VERSION> <key> <sha256> <seed>
    <pickle bytes>

under ``<root>/<key[:2]>/<key>.trial``; the SHA-256 covers the pickle
bytes.  :meth:`TrialStore.get` reads a record in one ``os.read`` and
splits it at the first newline.  Writes go through a unique temporary
file and ``os.replace``, so concurrent writers of the same key are
safe: both computed the same deterministic bytes and last-write-wins
is a no-op.  Records of an earlier layout (``<key>.json``) sit beside
the new ones; no path addresses them and ``len()`` does not count
them.

Reads degrade, never crash: a corrupted record, a pickle that fails
its digest or does not load, a record written by a different store
or simulator epoch or a result rejected by the caller's ``verify``
hook all count as a miss with the matching counter bumped, and the
trial simply recomputes.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from repro.snapshot.machine import SNAPSHOT_VERSION

#: Bump when the record layout changes; old records become misses.
STORE_VERSION = 2

#: The record file suffix of this layout.
_SUFFIX = ".trial"

#: The header's epoch fields as a record holds them.
_STORE_EPOCH = b"%d" % STORE_VERSION
_SNAPSHOT_EPOCH = b"%d" % SNAPSHOT_VERSION

#: Environment variable consulted by :func:`resolve_store` when no
#: explicit cache directory is given.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Counter names every :class:`TrialStore` maintains.
STORE_COUNTERS = ("hits", "misses", "stores", "corrupt", "stale",
                  "rejected", "uncacheable")


class TrialStore:
    """Persistent, process-safe store of completed trial results."""

    def __init__(self, root: Any, *, metrics: Any = None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._prefix = str(self.root) + os.sep
        self.metrics = metrics
        self._counts: Dict[str, int] = {name: 0
                                        for name in STORE_COUNTERS}
        self._bytes = 0

    # --- accounting -------------------------------------------------------

    def _bump(self, name: str, amount: int = 1) -> None:
        self._counts[name] += amount
        if self.metrics is not None:
            self.metrics.counter(f"memo.store.{name}").inc(amount)

    def counts(self) -> Dict[str, int]:
        """Copy of the hit/miss/degradation counters."""
        return dict(self._counts, bytes=self._bytes)

    def note_uncacheable(self) -> None:
        """Record a trial that could not be keyed (ran uncached)."""
        self._bump("uncacheable")

    # --- layout -----------------------------------------------------------

    def path_for(self, key: str) -> Path:
        """Where *key*'s record lives (two-level fan-out)."""
        return self.root / key[:2] / (key + _SUFFIX)

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*" + _SUFFIX))

    # --- reads ------------------------------------------------------------

    def get(self, key: str,
            verify: Optional[Callable[[Any], bool]] = None
            ) -> Tuple[bool, Any]:
        """``(True, result)`` on a sound hit, else ``(False, None)``.

        Every failure mode is a miss: the record is unreadable or its
        header is malformed or names another key (``corrupt``), it is
        from another store/snapshot epoch (``stale``), its pickle fails
        the digest or does not load (``corrupt``), or *verify* rejects
        the result (``rejected``).
        """
        # The same file as path_for(key), concatenated as a str and
        # read in one os.read: no pathlib joins and no file object.
        path = self._prefix + key[:2] + os.sep + key + _SUFFIX
        try:
            fd = os.open(path, os.O_RDONLY)
        except FileNotFoundError:
            self._bump("misses")
            return False, None
        except OSError:
            self._bump("corrupt")
            return False, None
        try:
            data = os.read(fd, os.fstat(fd).st_size)
        except OSError:
            self._bump("corrupt")
            return False, None
        finally:
            os.close(fd)
        header, _, payload = data.partition(b"\n")
        fields = header.split(b" ")
        if (len(fields) != 6 or fields[0] != b"trial"
                or fields[3] != key.encode()):
            self._bump("corrupt")
            return False, None
        if fields[1] != _STORE_EPOCH or fields[2] != _SNAPSHOT_EPOCH:
            self._bump("stale")
            return False, None
        if hashlib.sha256(payload).hexdigest().encode() != fields[4]:
            self._bump("corrupt")
            return False, None
        try:
            result = pickle.loads(payload)
        except Exception:
            # A truncated or foreign pickle, or one whose classes are
            # gone from the code: any load failure is a miss.
            self._bump("corrupt")
            return False, None
        if verify is not None and not verify(result):
            self._bump("rejected")
            return False, None
        self._bump("hits")
        return True, result

    # --- writes -----------------------------------------------------------

    def put(self, key: str, seed: int, result: Any) -> None:
        """Persist *result* under *key* (atomic, last-write-wins)."""
        payload = pickle.dumps(result,
                               protocol=pickle.HIGHEST_PROTOCOL)
        header = "trial %d %d %s %s %d\n" % (
            STORE_VERSION, SNAPSHOT_VERSION, key,
            hashlib.sha256(payload).hexdigest(), seed)
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                                   prefix=f".{key[:8]}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(header.encode("ascii") + payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._bytes += len(payload)
        self._bump("stores")
        if self.metrics is not None:
            self.metrics.counter("memo.store.bytes").inc(len(payload))


def resolve_store(cache_dir: Any = None, *, enabled: bool = True,
                  metrics: Any = None) -> Optional[TrialStore]:
    """Build the :class:`TrialStore` the CLI flags / environment ask
    for: ``None`` when caching is disabled (``--no-cache``) or no
    directory is configured (neither ``cache_dir`` nor the
    ``REPRO_CACHE_DIR`` environment variable)."""
    if not enabled:
        return None
    directory = cache_dir or os.environ.get(CACHE_DIR_ENV) or None
    if not directory:
        return None
    return TrialStore(directory, metrics=metrics)


__all__ = [
    "CACHE_DIR_ENV",
    "STORE_COUNTERS",
    "STORE_VERSION",
    "TrialStore",
    "resolve_store",
]
