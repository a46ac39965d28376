"""On-disk sweep checkpointing: journal completed trials, resume free.

A :class:`SweepJournal` is an append-only JSONL file recording every
*successfully completed* trial of a sweep.  If the sweep process dies
(or is killed) mid-run, rerunning the same sweep against the same
journal replays nothing that already finished: completed results are
loaded straight off disk and only the missing trials execute.  This is
the harness-level analogue of the :mod:`repro.snapshot` discipline —
checkpoint the expensive state, rewind for free.

Layout (one JSON object per line)::

    {"kind": "header", "version": 1, "label": ..., "master_seed": ...,
     "trial_count": N, "fingerprint": "..."}
    {"kind": "trial", "index": 3, "attempt": 0, "seed": 1234,
     "sha256": "...", "result": "<base64 pickle>"}

Integrity rules:

* the header must match the sweep being resumed (label, master seed,
  trial count) — resuming a *different* sweep raises
  :class:`JournalMismatch` instead of silently mixing results;
* each trial line carries the SHA-256 of its pickled result; a line
  that fails any integrity check — torn tail (the classic artefact of
  dying mid-``write``; a line counts only once its newline is on
  disk), digest mismatch, undecodable pickle — is discarded *along
  with everything after it* (appends are ordered, so later lines are
  suspect too); those trials simply rerun.  :meth:`SweepJournal.open`
  truncates the file back to the last accepted line before it
  appends, so the records written after a resume are never hidden
  behind the discarded tail;
* the recorded seed must equal ``derive_seed(master, index, label,
  attempt)`` for the recorded attempt, which catches journals whose
  parameters were re-derived differently.

Results are pickled because trial outcomes are arbitrary Python
objects (attributions, dataclasses, sets); the digest check means a
corrupted journal degrades to "rerun that trial", never to silently
wrong data.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.harness.sweep import derive_seed

JOURNAL_VERSION = 1


class JournalError(RuntimeError):
    """The journal file cannot be used at all (bad header syntax...)."""


class JournalMismatch(JournalError):
    """The journal belongs to a different sweep than the one resuming."""


def _fingerprint(label: str, master_seed: int, trial_count: int) -> str:
    material = f"{label}:{master_seed}:{trial_count}".encode()
    return hashlib.sha256(material).hexdigest()[:16]


class SweepJournal:
    """Append-only journal of completed sweep trials.

    A journal has one appender: the process that opened it.  Trials
    run in pool workers are journalled by that parent process (see
    :mod:`repro.harness.dispatch`), and a job-service job is one
    sweep with one journal.

    Use through :func:`repro.harness.resilience.run_resilient_sweep`
    (``journal=path``); direct use::

        journal = SweepJournal(path)
        done = journal.open(label="aes", master_seed=7, trial_count=4)
        ...                       # done: {index: (attempt, result)}
        journal.record(index, attempt, seed, result)
        journal.close()
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._fh = None
        self._label = ""
        self._master_seed = 0
        self._trial_count = 0
        #: Trials dropped at load time for failing integrity checks.
        self.discarded = 0

    # --- lifecycle --------------------------------------------------------

    def open(self, label: str, master_seed: int,
             trial_count: int) -> Dict[int, Tuple[int, Any]]:
        """Open (creating if needed) and return completed trials as
        ``{index: (attempt, result)}``.

        Whatever follows the last accepted record (a torn tail, a
        corrupt line and the lines after it) is truncated away before
        appending, so records written from here on are seen by the
        next load."""
        self._label = label
        self._master_seed = master_seed
        self._trial_count = trial_count
        completed: Dict[int, Tuple[int, Any]] = {}
        end = 0
        if self.path.exists() and self.path.stat().st_size > 0:
            completed, end = self._load()
            os.truncate(self.path, end)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")
        if end == 0:
            self._append({
                "kind": "header",
                "version": JOURNAL_VERSION,
                "label": label,
                "master_seed": master_seed,
                "trial_count": trial_count,
                "fingerprint": _fingerprint(label, master_seed,
                                            trial_count),
            })
        return completed

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # --- writing ----------------------------------------------------------

    def record(self, index: int, attempt: int, seed: int,
               result: Any) -> None:
        """Journal one completed trial (flushed + fsynced so a later
        crash cannot lose it)."""
        if self._fh is None:
            raise JournalError("journal is not open")
        payload = pickle.dumps(result,
                               protocol=pickle.HIGHEST_PROTOCOL)
        self._append({
            "kind": "trial",
            "index": index,
            "attempt": attempt,
            "seed": seed,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "result": base64.b64encode(payload).decode("ascii"),
        })

    def _append(self, record: Dict[str, Any]) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    # --- loading ----------------------------------------------------------

    def _load(self) -> Tuple[Dict[int, Tuple[int, Any]], int]:
        """Completed trials, plus the byte offset just past the last
        accepted line (header included): where appends resume."""
        # The piece after the final newline is empty or a torn tail: a
        # line counts only once its newline is on disk.
        lines = self.path.read_bytes().split(b"\n")
        try:
            header = json.loads(lines[0])
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise JournalError(
                f"{self.path}: unreadable journal header") from exc
        if not isinstance(header, dict) or header.get("kind") != "header":
            raise JournalError(f"{self.path}: first line is not a header")
        if header.get("version") != JOURNAL_VERSION:
            raise JournalMismatch(
                f"{self.path}: journal version "
                f"{header.get('version')!r} != {JOURNAL_VERSION}")
        expect = _fingerprint(self._label, self._master_seed,
                              self._trial_count)
        if header.get("fingerprint") != expect:
            raise JournalMismatch(
                f"{self.path}: journal belongs to sweep "
                f"label={header.get('label')!r} "
                f"master_seed={header.get('master_seed')} "
                f"trial_count={header.get('trial_count')}, not to "
                f"label={self._label!r} master_seed={self._master_seed} "
                f"trial_count={self._trial_count}")
        completed: Dict[int, Tuple[int, Any]] = {}
        if len(lines) == 1:
            return completed, 0  # header torn before its newline
        end = len(lines[0]) + 1
        for line in lines[1:-1]:
            record = self._decode(line)
            if record is None:
                # Torn or corrupt line: everything after it is suspect
                # (appends are ordered), so stop — those trials rerun.
                break
            index, attempt, result = record
            completed[index] = (attempt, result)
            end += len(line) + 1
        return completed, end

    def _decode(self, line: bytes
                ) -> Optional[Tuple[int, int, Any]]:
        try:
            record = json.loads(line)
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        if not isinstance(record, dict) or record.get("kind") != "trial":
            return None
        try:
            index = record["index"]
            attempt = record["attempt"]
            seed = record["seed"]
            payload = base64.b64decode(record["result"])
            if hashlib.sha256(payload).hexdigest() != record["sha256"]:
                self.discarded += 1
                return None
            if not (0 <= index < self._trial_count):
                self.discarded += 1
                return None
            if derive_seed(self._master_seed, index, self._label,
                           attempt) != seed:
                self.discarded += 1
                return None
        except (KeyError, TypeError, ValueError):
            self.discarded += 1
            return None
        try:
            result = pickle.loads(payload)
        except Exception:
            # A truncated or foreign pickle, or one whose classes are
            # gone from the code: the trial reruns.
            self.discarded += 1
            return None
        return index, attempt, result


__all__ = [
    "JOURNAL_VERSION",
    "JournalError",
    "JournalMismatch",
    "SweepJournal",
]
