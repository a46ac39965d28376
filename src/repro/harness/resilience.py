"""Fault-tolerant sweep execution: watchdog, retries, degradation.

A plain process pool assumes every trial succeeds: one crashed or
hung worker process loses the whole sweep.  At experiment volume that
assumption fails routinely — OOM kills, wedged simulations, flaky
serialisation — so :func:`run_resilient_sweep`, the one sweep driver,
runs trials under a supervisor that *expects* them to misbehave:

* **watchdog timeouts** — each attempt runs in its own worker process
  with a deadline; the supervisor kills and reaps workers that blow
  it, reclaiming the slot immediately;
* **bounded retries with fresh seed lineage** — attempt *k* of trial
  *i* reruns with ``derive_seed(master, i, label, attempt=k)``
  (attempt 0 is bit-identical to the historical seed), plus
  exponential backoff between attempts.  Because both the retry seed
  and the retry *decision* depend only on ``(master_seed, label,
  index, attempt)`` and the observed failures, merged results are
  invariant to worker count and to *when* failures land in wall-clock
  time;
* **result integrity** — workers ship their result with a SHA-256 of
  the pickled payload; a digest mismatch (or an
  optional semantic ``FaultPolicy.verify`` hook returning False)
  counts as a failed attempt and retries like any other fault;
* **graceful degradation** — when a trial exhausts its attempts,
  ``on_exhausted`` picks between ``'raise'`` (abort the sweep),
  ``'skip'`` (drop the trial from merged results) and ``'default'``
  (substitute ``FaultPolicy.default``);
* **checkpointing** — with ``journal=path`` every completed trial is
  journalled to disk (:mod:`repro.harness.journal`); rerunning an
  interrupted sweep against its journal reruns only the missing
  trials;
* **accounting** — every run produces a :class:`SweepReport`
  (per-trial attempts, outcomes, wall time) that can be recorded into
  a :class:`~repro.observability.registry.MetricsRegistry` and
  emitted as :class:`~repro.observability.tracer.EventTracer` slices.

The fault-injection counterpart lives in :mod:`repro.harness.chaos`;
``tests/harness/test_chaos.py`` proves that a sweep under injected
crashes, hangs, exceptions and corruption merges bit-identically to a
fault-free run.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
)

from repro.harness.journal import SweepJournal
from repro.harness.sweep import SweepResult, Trial, TrialFn, derive_seed

#: Attempt outcomes, in severity order.  "ok" terminates the ladder;
#: everything else triggers a retry (or exhaustion).
ATTEMPT_OUTCOMES = ("ok", "exception", "timeout", "crash", "corrupt",
                    "rejected")

#: Trial resolutions: how each trial's slot in the merged results was
#: ultimately filled.  "cached" marks results served from a
#: content-addressed :class:`~repro.memo.store.TrialStore`.
RESOLUTIONS = ("ok", "journal", "cached", "skipped", "defaulted",
               "failed")


def default_workers() -> int:
    """Worker-count default: ``REPRO_WORKERS`` if set, else the CPUs
    this process may actually run on.  Returns at least 1.

    ``os.sched_getaffinity`` is preferred over ``os.cpu_count``
    because cgroup cpusets (CI runners, containers) often pin the
    process to far fewer CPUs than the host owns; sizing the pool to
    the host count there just makes workers fight over the allowed
    cores.
    """
    env = os.environ.get("REPRO_WORKERS", "")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            return max(1, len(affinity(0)))
        except OSError:
            pass
    return max(1, os.cpu_count() or 1)


class _Skipped:
    """Singleton placeholder for trials dropped by
    ``on_exhausted='skip'`` (kept in ``outcomes`` so indices stay
    aligned with ``trials``; filtered out of ``results()``)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "SKIPPED"

    def __reduce__(self):
        return (_Skipped, ())


#: The skip marker.
SKIPPED = _Skipped()


class SweepFailure(RuntimeError):
    """A trial exhausted its attempts under ``on_exhausted='raise'``."""

    def __init__(self, index: int, attempts: List["TrialAttempt"]):
        causes = ", ".join(a.outcome for a in attempts) or "none"
        super().__init__(
            f"trial {index} failed after {len(attempts)} attempt(s) "
            f"({causes})")
        self.index = index
        self.attempts = attempts


@dataclass(frozen=True)
class FaultPolicy:
    """How hard to try, and what to do when trying stops working."""

    #: Per-attempt deadline in host seconds; None disables the
    #: watchdog (and, absent chaos, keeps single-worker sweeps on the
    #: in-process reference path).
    timeout: Optional[float] = None
    #: Total attempts per trial (first try included).
    max_attempts: int = 3
    #: Exponential backoff before retry k: min(base * factor**(k-1),
    #: cap) seconds.  base=0 disables waiting (tests).
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 2.0
    #: 'raise' | 'skip' | 'default' — see the module docstring.
    on_exhausted: str = "raise"
    #: Substituted result under ``on_exhausted='default'``.
    default: Any = None
    #: Optional semantic check; returning False fails the attempt
    #: (outcome "rejected") and retries.  Must be picklable if used
    #: with worker processes.
    verify: Optional[Callable[[Any], bool]] = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.on_exhausted not in ("raise", "skip", "default"):
            raise ValueError(
                f"on_exhausted must be 'raise', 'skip' or 'default', "
                f"not {self.on_exhausted!r}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")

    def backoff(self, attempt: int) -> float:
        """Delay before *attempt* (>= 1)."""
        if attempt <= 0 or self.backoff_base <= 0:
            return 0.0
        return min(self.backoff_base
                   * (self.backoff_factor ** (attempt - 1)),
                   self.backoff_cap)


@dataclass
class TrialAttempt:
    """One attempt of one trial."""

    attempt: int          # 0-based; attempt 0 uses the legacy seed
    outcome: str          # one of ATTEMPT_OUTCOMES
    seed: int
    started: float        # seconds since the sweep began
    duration: float       # host seconds
    error: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "attempt": self.attempt,
            "outcome": self.outcome,
            "seed": self.seed,
            "started": round(self.started, 6),
            "duration": round(self.duration, 6),
            "error": self.error,
        }


@dataclass
class TrialReport:
    """Everything that happened to one trial."""

    index: int
    attempts: List[TrialAttempt]
    resolution: str       # one of RESOLUTIONS

    @property
    def retries(self) -> int:
        return max(len(self.attempts) - 1, 0)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "resolution": self.resolution,
            "attempts": [a.to_dict() for a in self.attempts],
        }


@dataclass
class SweepReport:
    """Fault-tolerance accounting for one resilient sweep."""

    label: str
    master_seed: int
    workers: int
    trials: List[TrialReport]
    wall_seconds: float
    #: Trial-store counter deltas for this sweep (hits, misses,
    #: stores, corrupt, stale, rejected, uncacheable, bytes), or
    #: ``None`` when no store was attached.
    cache: Optional[Dict[str, int]] = None

    @property
    def attempts_total(self) -> int:
        return sum(len(t.attempts) for t in self.trials)

    @property
    def retries_total(self) -> int:
        return sum(t.retries for t in self.trials)

    def outcome_counts(self) -> Dict[str, int]:
        """Failed-attempt tally by cause (``ok`` excluded)."""
        counts = {outcome: 0 for outcome in ATTEMPT_OUTCOMES
                  if outcome != "ok"}
        for trial in self.trials:
            for attempt in trial.attempts:
                if attempt.outcome != "ok":
                    counts[attempt.outcome] += 1
        return counts

    def resolution_counts(self) -> Dict[str, int]:
        counts = {resolution: 0 for resolution in RESOLUTIONS}
        for trial in self.trials:
            counts[trial.resolution] += 1
        return counts

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "master_seed": self.master_seed,
            "workers": self.workers,
            "wall_seconds": round(self.wall_seconds, 6),
            "attempts_total": self.attempts_total,
            "retries_total": self.retries_total,
            "failures": self.outcome_counts(),
            "resolutions": self.resolution_counts(),
            "cache": self.cache,
            "trials": [t.to_dict() for t in self.trials],
        }

    def record_into(self, metrics: Any,
                    prefix: str = "harness.sweep") -> None:
        """Record the report's counters into a
        :class:`~repro.observability.registry.MetricsRegistry` so
        sweep failure/attempt counts travel in exported metrics JSON
        alongside the simulation counters."""
        base = f"{prefix}.{self.label}" if self.label else prefix
        metrics.counter(f"{base}.trials").inc(len(self.trials))
        metrics.counter(f"{base}.attempts").inc(self.attempts_total)
        metrics.counter(f"{base}.retries").inc(self.retries_total)
        for outcome, count in self.outcome_counts().items():
            metrics.counter(f"{base}.failures.{outcome}").inc(count)
        for resolution, count in self.resolution_counts().items():
            metrics.counter(
                f"{base}.resolutions.{resolution}").inc(count)
        for name, count in (self.cache or {}).items():
            metrics.counter(f"{base}.cache.{name}").inc(count)
        metrics.gauge(f"{base}.wall_seconds").set(
            round(self.wall_seconds, 6))

    def emit_trace(self, tracer: Any) -> None:
        """Emit one Chrome-trace slice per attempt (µs timebase,
        harness track) — replay windows and retry storms line up in
        Perfetto next to the simulation's own slices."""
        from repro.observability.tracer import HARNESS_TID
        name = self.label or "sweep"
        for trial in self.trials:
            for attempt in trial.attempts:
                tracer.complete(
                    f"{name}[{trial.index}]#{attempt.attempt}",
                    int(attempt.started * 1e6),
                    int(attempt.duration * 1e6),
                    cat="harness", tid=HARNESS_TID,
                    outcome=attempt.outcome,
                    error=attempt.error or None)


@dataclass
class ResilientSweepResult(SweepResult):
    """A :class:`~repro.harness.sweep.SweepResult` plus the
    fault-tolerance accounting.  ``outcomes`` keeps one slot per
    trial (``SKIPPED`` marks dropped trials); ``results()`` filters
    the markers out."""

    report: Optional[SweepReport] = None

    def results(self) -> List[Any]:
        return [o for o in self.outcomes if o is not SKIPPED]


# --- sweep-report collector (benchmark harness hook) ----------------------

#: ``.reports``: this thread's active report list, if any.
_report_collector = threading.local()


def note_sweep_report(report: SweepReport) -> None:
    """Called at the end of every resilient sweep; records the report
    when a collector is active on this thread (same idiom as
    :func:`repro.observability.profiler.note_machine`)."""
    reports = getattr(_report_collector, "reports", None)
    if reports is not None:
        reports.append(report)


@contextmanager
def collect_sweep_reports() -> Iterator[List[SweepReport]]:
    """Collect every :class:`SweepReport` this thread produces in this
    block (inner blocks shadow outer ones)."""
    previous = getattr(_report_collector, "reports", None)
    reports: List[SweepReport] = []
    _report_collector.reports = reports
    try:
        yield reports
    finally:
        _report_collector.reports = previous


# --- trial store ----------------------------------------------------------


class StoreSession:
    """The trial-store rules one sweep (or one cell executor) follows.

    * a trial whose key (trial-function fingerprint + canonical
      params + attempt-0 seed) has a record that ``verify`` accepts is
      served "cached" without running (:meth:`serve`); keys come
      from one :func:`~repro.memo.keys.trial_keyer`, so the function
      is fingerprinted, and its part of the key text hashed, once per
      session, the params once per trial;
    * only attempt-0 successes are persisted (:meth:`persist`): a
      retry ran with an attempt-k seed, and lookups always use the
      attempt-0 seed, so caching a retried result would pair the
      wrong lineage;
    * :meth:`delta` is the store's counter movement since the session
      opened.

    With ``store=None`` there are no keys, so every rule is a no-op.
    """

    def __init__(self, store: Any, trial_fn: TrialFn,
                 trials: Sequence[Trial]):
        self.store = store
        self.keys: Dict[int, str] = {}
        self._before: Dict[str, int] = {}
        if store is None:
            return
        from repro.memo.keys import (
            Unmemoizable,
            fingerprint_callable,
            trial_keyer,
        )
        self._before = store.counts()
        # One keyer per session: every trial runs the same function.
        try:
            key_of = trial_keyer(fingerprint_callable(trial_fn))
        except Unmemoizable:
            key_of = None
        for trial in trials:
            key = None
            if key_of is not None:
                try:
                    key = key_of(trial.params, trial.seed)
                except Unmemoizable:
                    pass
            if key is None:
                # Unkeyable trials run uncached, with a counter bump.
                store.note_uncacheable()
            else:
                self.keys[trial.index] = key

    def serve(self, trials: Sequence[Trial],
              verify: Optional[Callable[[Any], bool]],
              outcomes: Dict[int, Any],
              reports: Dict[int, TrialReport]) -> List[Trial]:
        """Resolve every trial with a sound stored record; return the
        trials served."""
        hits: List[Trial] = []
        for trial in trials:
            key = self.keys.get(trial.index)
            if key is None:
                continue
            hit, result = self.store.get(key, verify=verify)
            if hit:
                outcomes[trial.index] = result
                reports[trial.index] = TrialReport(
                    index=trial.index, attempts=[],
                    resolution="cached")
                hits.append(trial)
        return hits

    def persist(self, trials: Sequence[Trial],
                outcomes: Dict[int, Any],
                reports: Dict[int, TrialReport]) -> None:
        """Store the attempt-0 successes among *trials*."""
        for trial in trials:
            report = reports.get(trial.index)
            if (trial.index in self.keys
                    and report is not None
                    and report.resolution == "ok"
                    and report.attempts
                    and report.attempts[-1].attempt == 0):
                self.store.put(self.keys[trial.index], trial.seed,
                               outcomes[trial.index])

    def delta(self) -> Optional[Dict[str, int]]:
        """Counter deltas since the session opened (``None`` without
        a store)."""
        if self.store is None:
            return None
        after = self.store.counts()
        return {name: after[name] - self._before.get(name, 0)
                for name in after}


# --- driver ---------------------------------------------------------------


def run_resilient_sweep(trial_fn: TrialFn, params: Sequence[Any], *,
                        master_seed: int = 0,
                        workers: Optional[int] = None,
                        label: str = "",
                        policy: Optional[FaultPolicy] = None,
                        chaos: Any = None,
                        journal: Any = None,
                        store: Any = None,
                        metrics: Any = None,
                        tracer: Any = None) -> ResilientSweepResult:
    """Run ``trial_fn(params[i], seed_i)`` for every parameter set,
    surviving crashing, hanging and lying workers.

    *trial_fn* must be a top-level (picklable) callable whenever a
    worker process runs it.  Trial *i* gets
    ``derive_seed(master_seed, i, label)`` and results land in trial
    order regardless of worker scheduling; ``workers=None`` uses
    :func:`default_workers`.  On top of that contract come the
    :class:`FaultPolicy` retry ladder, optional
    :class:`~repro.harness.chaos.ChaosPlan` injection, optional
    on-disk *journal* (path or :class:`SweepJournal`) for resume,
    optional content-addressed *store* (path or
    :class:`~repro.memo.store.TrialStore`) that serves previously
    computed trials across sweeps and processes, and optional
    *metrics* registry / *tracer* to record the :class:`SweepReport`
    into.

    Store semantics (:class:`StoreSession`): a trial whose key has a
    sound record is resolved "cached" without running; first-attempt
    successes are persisted for future sweeps.
    ``FaultPolicy.verify`` vets cached results exactly like fresh
    ones — a rejected or corrupt record is a miss that recomputes,
    never a wrong result.

    The remaining trials go to :func:`repro.harness.dispatch.dispatch`:
    with no chaos, no watchdog timeout and one effective worker they
    run in this process; otherwise every attempt gets its own
    supervised worker process.  Both paths produce bit-identical
    results for the same inputs (``tests/harness/test_backends.py``).
    """
    from repro.harness.dispatch import dispatch
    policy = policy or FaultPolicy()
    params = list(params)
    trials = [Trial(index=i,
                    seed=derive_seed(master_seed, i, label), params=p)
              for i, p in enumerate(params)]
    outcomes: Dict[int, Any] = {}
    reports: Dict[int, TrialReport] = {}

    journal_obj: Optional[SweepJournal] = None
    if journal is not None:
        journal_obj = (journal if isinstance(journal, SweepJournal)
                       else SweepJournal(journal))
        for index, (attempt, result) in journal_obj.open(
                label, master_seed, len(trials)).items():
            outcomes[index] = result
            reports[index] = TrialReport(index=index, attempts=[],
                                         resolution="journal")

    if store is not None:
        from repro.memo.store import TrialStore
        if not isinstance(store, TrialStore):
            store = TrialStore(store)
    cache = StoreSession(store, trial_fn, trials)
    cache.serve([t for t in trials if t.index not in reports],
                policy.verify, outcomes, reports)

    todo = [t for t in trials if t.index not in reports]
    if workers is None:
        effective_workers = default_workers()
    else:
        effective_workers = max(int(workers), 1)
    effective_workers = min(effective_workers, max(len(todo), 1))

    t0 = time.perf_counter()
    try:
        dispatch(trial_fn, todo, policy=policy,
                 master_seed=master_seed, label=label,
                 workers=effective_workers, chaos=chaos,
                 journal=journal_obj, outcomes=outcomes,
                 reports=reports, t0=t0)
    finally:
        if journal_obj is not None:
            journal_obj.close()
    cache.persist(todo, outcomes, reports)

    wall = time.perf_counter() - t0
    report = SweepReport(
        label=label, master_seed=master_seed,
        workers=effective_workers,
        trials=[reports[t.index] for t in trials],
        wall_seconds=wall, cache=cache.delta())
    if metrics is not None:
        report.record_into(metrics)
    if tracer is not None:
        report.emit_trace(tracer)
    note_sweep_report(report)
    return ResilientSweepResult(
        label=label, master_seed=master_seed, trials=trials,
        outcomes=[outcomes[t.index] for t in trials],
        report=report)


__all__ = [
    "ATTEMPT_OUTCOMES",
    "RESOLUTIONS",
    "SKIPPED",
    "FaultPolicy",
    "ResilientSweepResult",
    "SweepFailure",
    "SweepReport",
    "TrialAttempt",
    "TrialReport",
    "collect_sweep_reports",
    "default_workers",
    "note_sweep_report",
    "run_resilient_sweep",
]
