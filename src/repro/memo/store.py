"""The content-addressed trial store.

A sweep trial is a pure function of ``(trial function, parameters,
derived seed)`` — the harness determinism contract the chaos suite
proves.  :class:`TrialStore` therefore addresses every completed trial
by :func:`repro.memo.keys.trial_key` and persists it on disk, so any
later sweep — another process, another worker count, another day —
that reaches the same key loads the result instead of recomputing it.

Records are journal-compatible JSON (one object per file, the same
``sha256`` + base64-pickle shape as :mod:`repro.harness.journal`
lines) under ``<root>/<key[:2]>/<key>.json``.  Writes go through a
unique temporary file and ``os.replace``, so concurrent writers of
the same key are safe: both computed the same deterministic bytes and
last-write-wins is a no-op.  Reads degrade, never crash: a corrupted
record, an undecodable pickle, a record written by a different
simulator epoch (``snapshot_version``) or a result rejected by the
caller's ``verify`` hook all count as a miss with the matching
counter bumped, and the trial simply recomputes.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from repro.snapshot.machine import SNAPSHOT_VERSION

#: Bump when the record layout changes; old records become misses.
STORE_VERSION = 1

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
        self._root = str(self.root)
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
        return self.root / key[:2] / f"{key}.json"

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    # --- reads ------------------------------------------------------------

    def get(self, key: str,
            verify: Optional[Callable[[Any], bool]] = None
            ) -> Tuple[bool, Any]:
        """``(True, result)`` on a sound hit, else ``(False, None)``.

        Every failure mode is a miss: the record is unreadable or
        mis-shaped (``corrupt``), from another store/snapshot epoch
        (``stale``), fails its integrity digest or unpickle
        (``corrupt``), or is rejected by *verify* (``rejected``).
        """
        # A str path and a plain open: the same file as path_for(key),
        # without two pathlib joins per read.
        path = os.path.join(self._root, key[:2], key + ".json")
        try:
            with open(path, encoding="utf-8") as fh:
                record = json.loads(fh.read())
        except FileNotFoundError:
            self._bump("misses")
            return False, None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self._bump("corrupt")
            return False, None
        if (not isinstance(record, dict)
                or record.get("kind") != "trial"
                or record.get("key") != key):
            self._bump("corrupt")
            return False, None
        if (record.get("version") != STORE_VERSION
                or record.get("snapshot_version") != SNAPSHOT_VERSION):
            self._bump("stale")
            return False, None
        try:
            payload = base64.b64decode(record["result"])
            if hashlib.sha256(payload).hexdigest() != record["sha256"]:
                self._bump("corrupt")
                return False, None
            result = pickle.loads(payload)
        except (KeyError, TypeError, ValueError, pickle.PickleError):
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
        record = {
            "kind": "trial",
            "key": key,
            "version": STORE_VERSION,
            "snapshot_version": SNAPSHOT_VERSION,
            "seed": seed,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "result": base64.b64encode(payload).decode("ascii"),
        }
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(record, sort_keys=True) + "\n"
        fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                                   prefix=f".{key[:8]}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
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
