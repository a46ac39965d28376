"""Trial dispatch: the one way a set of trials gets executed.

:func:`dispatch` resolves a todo list of trials — for
:func:`repro.harness.run_resilient_sweep` and the job service's cell
executor alike — on one of two engines, picked from what the call
asks for:

* the **supervised process pool** when ``chaos`` is set, when
  ``policy.timeout`` sets a watchdog deadline, or when more than one
  worker has work (``min(workers, len(todo)) > 1``): every attempt
  runs in its own worker process, with crash containment, result
  digests and chaos injection;
* the **in-process loop** otherwise: no pickling and no watchdog.  It
  is the reference execution the pool must reproduce.

Both engines honour the same contract: a resolved trial lands in
``outcomes[index]`` / ``reports[index]`` and (when a journal is
attached) is journalled exactly once, so results are bit-identical
whichever engine ran them — proven by ``tests/harness/test_backends.py``.
Trials carry *absolute* sweep indices, so retry seeds derive from
``(master_seed, trial.index, label, attempt)`` and any subset of a
sweep (a service batch, the tail after a journal resume) produces
exactly the results the full sweep would.
"""

from __future__ import annotations

import hashlib
import heapq
import multiprocessing
import os
import pickle
import threading
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.harness.journal import SweepJournal
from repro.harness.resilience import (
    SKIPPED,
    FaultPolicy,
    SweepFailure,
    TrialAttempt,
    TrialReport,
)
from repro.harness.sweep import Trial, TrialFn, derive_seed


def dispatch(trial_fn: TrialFn, todo: Sequence[Trial], *,
             policy: FaultPolicy, master_seed: int, label: str,
             workers: int, chaos: Any,
             journal: Optional[SweepJournal],
             outcomes: Dict[int, Any],
             reports: Dict[int, TrialReport], t0: float) -> None:
    """Resolve every trial in *todo* into *outcomes* and *reports*.

    *t0* is the ``time.perf_counter()`` origin of attempt timestamps.
    The engine is chosen as the module docstring describes; the pool
    runs at most ``min(workers, len(todo))`` workers at once.
    """
    if not todo:
        return
    workers = min(max(workers, 1), len(todo))
    if chaos is None and policy.timeout is None and workers == 1:
        _run_inline(trial_fn, todo, policy=policy,
                    master_seed=master_seed, label=label,
                    journal=journal, outcomes=outcomes,
                    reports=reports, t0=t0)
        return
    _Supervisor(trial_fn, todo, policy=policy, master_seed=master_seed,
                label=label, workers=workers, chaos=chaos,
                journal=journal, outcomes=outcomes, reports=reports,
                t0=t0).run()


# --- resolution rules both engines share ----------------------------------


def _attempt_seed(trial: Trial, attempt: int, master_seed: int,
                  label: str) -> int:
    """Attempt 0 runs with the trial's own seed; retry *k* with
    ``derive_seed(master_seed, index, label, attempt=k)``."""
    if attempt == 0:
        return trial.seed
    return derive_seed(master_seed, trial.index, label, attempt)


def _resolve_ok(trial: Trial, attempt: int, seed: int, result: Any,
                attempts: List[TrialAttempt],
                journal: Optional[SweepJournal],
                outcomes: Dict[int, Any],
                reports: Dict[int, TrialReport]) -> None:
    outcomes[trial.index] = result
    reports[trial.index] = TrialReport(
        index=trial.index, attempts=attempts, resolution="ok")
    if journal is not None:
        journal.record(trial.index, attempt, seed, result)


def _resolve_exhausted(trial: Trial, attempts: List[TrialAttempt],
                       policy: FaultPolicy,
                       outcomes: Dict[int, Any],
                       reports: Dict[int, TrialReport]) -> None:
    """Apply ``policy.on_exhausted`` to a trial out of attempts:
    raise :class:`SweepFailure`, skip it, or substitute the default."""
    if policy.on_exhausted == "raise":
        reports[trial.index] = TrialReport(
            index=trial.index, attempts=attempts, resolution="failed")
        raise SweepFailure(trial.index, attempts)
    if policy.on_exhausted == "skip":
        outcomes[trial.index] = SKIPPED
        resolution = "skipped"
    else:
        outcomes[trial.index] = policy.default
        resolution = "defaulted"
    reports[trial.index] = TrialReport(
        index=trial.index, attempts=attempts, resolution=resolution)


# --- in-process engine ----------------------------------------------------


def _run_inline(trial_fn: TrialFn, todo: Sequence[Trial], *,
                policy: FaultPolicy, master_seed: int, label: str,
                journal: Optional[SweepJournal],
                outcomes: Dict[int, Any],
                reports: Dict[int, TrialReport], t0: float) -> None:
    """Run every attempt in this process, one trial after another."""
    for trial in todo:
        attempts: List[TrialAttempt] = []
        for attempt in range(policy.max_attempts):
            if attempt:
                delay = policy.backoff(attempt)
                if delay:
                    time.sleep(delay)
            seed = _attempt_seed(trial, attempt, master_seed, label)
            started = time.perf_counter() - t0
            try:
                result = trial_fn(trial.params, seed)
                duration = time.perf_counter() - t0 - started
                if policy.verify is None or policy.verify(result):
                    outcome, error = "ok", ""
                else:
                    outcome = "rejected"
                    error = "verify hook rejected the result"
            except Exception as exc:
                duration = time.perf_counter() - t0 - started
                outcome = "exception"
                error = f"{type(exc).__name__}: {exc}"
            attempts.append(TrialAttempt(
                attempt=attempt, outcome=outcome, seed=seed,
                started=started, duration=duration, error=error))
            if outcome == "ok":
                _resolve_ok(trial, attempt, seed, result, attempts,
                            journal, outcomes, reports)
                break
        else:
            _resolve_exhausted(trial, attempts, policy, outcomes,
                               reports)


# --- worker side ----------------------------------------------------------


def _mp_context():
    """Prefer fork (cheap, inherits the imported simulator); fall back
    to the platform default where fork is unavailable."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


#: Seconds between a pool worker's checks that its parent still lives.
_PARENT_POLL = 0.5


def _exit_with_parent(parent: int) -> None:
    """Start a daemon thread that ends this worker once it is no
    longer *parent*'s child.  A worker whose supervisor was SIGKILLed
    is re-parented; without the check it would run its attempt to the
    end, and a hung attempt with no watchdog ``timeout`` (a service
    job's) would live forever."""
    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch",
                     daemon=True).start()


def _attempt_worker(fn, params, seed, chaos, index, attempt, conn):
    """Run one attempt in a worker process and ship the result with an
    integrity digest.  Chaos hooks run here — inside the blast radius
    the supervisor is designed to contain.  The worker exits on its
    own if the supervisor dies (:func:`_exit_with_parent`)."""
    _exit_with_parent(os.getppid())
    try:
        if chaos is not None:
            chaos.before(index, attempt)
        result = fn(params, seed)
        payload = pickle.dumps(result,
                               protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest()
        if chaos is not None:
            payload = chaos.mangle(index, attempt, payload)
        conn.send_bytes(pickle.dumps(("ok", digest, payload)))
    except BaseException as exc:  # noqa: BLE001 — must report, not die
        try:
            conn.send_bytes(pickle.dumps(
                ("error", f"{type(exc).__name__}: {exc}")))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


# --- supervised process pool ----------------------------------------------


@dataclass
class _InFlight:
    trial: Trial
    attempt: int
    seed: int
    process: Any
    conn: Any
    started: float       # seconds since sweep start
    deadline: Optional[float]


class _Supervisor:
    """Bounded-parallelism process supervisor with a watchdog."""

    def __init__(self, trial_fn: TrialFn, todo: Sequence[Trial], *,
                 policy: FaultPolicy, master_seed: int, label: str,
                 workers: int, chaos: Any,
                 journal: Optional[SweepJournal],
                 outcomes: Dict[int, Any],
                 reports: Dict[int, TrialReport],
                 t0: float):
        self.trial_fn = trial_fn
        self.policy = policy
        self.master_seed = master_seed
        self.label = label
        self.workers = workers
        self.chaos = chaos
        self.journal = journal
        self.outcomes = outcomes
        self.reports = reports
        self.t0 = t0
        self.ctx = _mp_context()
        self.attempts: Dict[int, List[TrialAttempt]] = {
            t.index: [] for t in todo}
        #: (ready_at, tie-break, trial, attempt) — backoff scheduling.
        self._pending: List[Tuple[float, int, Trial, int]] = []
        self._tick = 0
        for trial in todo:
            self._push(trial, attempt=0, ready_at=0.0)
        self.inflight: Dict[Any, _InFlight] = {}

    # --- time -------------------------------------------------------------

    def _now(self) -> float:
        return time.perf_counter() - self.t0

    # --- scheduling -------------------------------------------------------

    def _push(self, trial: Trial, attempt: int,
              ready_at: float) -> None:
        self._tick += 1
        heapq.heappush(self._pending,
                       (ready_at, self._tick, trial, attempt))

    def _spawn(self, trial: Trial, attempt: int) -> None:
        seed = _attempt_seed(trial, attempt, self.master_seed,
                             self.label)
        recv_conn, send_conn = self.ctx.Pipe(duplex=False)
        process = self.ctx.Process(
            target=_attempt_worker,
            args=(self.trial_fn, trial.params, seed, self.chaos,
                  trial.index, attempt, send_conn),
            daemon=True)
        process.start()
        # Close the parent's copy of the write end: the child dying is
        # then guaranteed to surface as EOF on recv_conn.
        send_conn.close()
        now = self._now()
        deadline = (None if self.policy.timeout is None
                    else now + self.policy.timeout)
        self.inflight[recv_conn] = _InFlight(
            trial=trial, attempt=attempt, seed=seed, process=process,
            conn=recv_conn, started=now, deadline=deadline)

    # --- reaping ----------------------------------------------------------

    def _dispose(self, flight: _InFlight, kill: bool = False) -> None:
        if kill:
            flight.process.terminate()
            flight.process.join(timeout=0.5)
            if flight.process.is_alive():
                flight.process.kill()
        flight.process.join(timeout=10)
        try:
            flight.conn.close()
        except Exception:
            pass

    def _reap_timeout(self, flight: _InFlight) -> None:
        self.inflight.pop(flight.conn, None)
        self._dispose(flight, kill=True)
        self._failure(flight, "timeout",
                      f"attempt exceeded the "
                      f"{self.policy.timeout}s watchdog deadline")

    # --- outcome bookkeeping ----------------------------------------------

    def _record_attempt(self, flight: _InFlight, outcome: str,
                        error: str) -> List[TrialAttempt]:
        attempts = self.attempts[flight.trial.index]
        attempts.append(TrialAttempt(
            attempt=flight.attempt, outcome=outcome, seed=flight.seed,
            started=flight.started,
            duration=max(self._now() - flight.started, 0.0),
            error=error))
        return attempts

    def _success(self, flight: _InFlight, result: Any) -> None:
        attempts = self._record_attempt(flight, "ok", "")
        _resolve_ok(flight.trial, flight.attempt, flight.seed, result,
                    attempts, self.journal, self.outcomes,
                    self.reports)

    def _failure(self, flight: _InFlight, outcome: str,
                 error: str) -> None:
        # The flight is already out of self.inflight by the time any
        # failure is recorded.
        attempts = self._record_attempt(flight, outcome, error)
        next_attempt = flight.attempt + 1
        if next_attempt < self.policy.max_attempts:
            self._push(flight.trial, next_attempt,
                       self._now() + self.policy.backoff(next_attempt))
            return
        # A SweepFailure raised here aborts the loop; run() then kills
        # every in-flight worker.
        _resolve_exhausted(flight.trial, attempts, self.policy,
                           self.outcomes, self.reports)

    def _shutdown(self) -> None:
        """Kill and reap every in-flight worker (abort path)."""
        for flight in list(self.inflight.values()):
            self._dispose(flight, kill=True)
        self.inflight.clear()

    # --- main loop --------------------------------------------------------

    def run(self) -> None:
        try:
            self._loop()
        except BaseException:
            self._shutdown()
            raise

    def _loop(self) -> None:
        while self._pending or self.inflight:
            now = self._now()
            while (self._pending
                   and len(self.inflight) < self.workers
                   and self._pending[0][0] <= now):
                _ready, _tick, trial, attempt = \
                    heapq.heappop(self._pending)
                self._spawn(trial, attempt)
            if not self.inflight:
                # Everything runnable is in backoff: sleep it off.
                wait_for = max(self._pending[0][0] - self._now(), 0.0)
                if wait_for:
                    time.sleep(min(wait_for, 0.25))
                continue
            timeout = self._wait_budget()
            ready = _connection_wait(list(self.inflight.keys()),
                                     timeout)
            for conn in ready:
                flight = self.inflight.pop(conn, None)
                if flight is not None:
                    self._reap(flight)
            now = self._now()
            for flight in [f for f in self.inflight.values()
                           if f.deadline is not None
                           and f.deadline <= now]:
                self._reap_timeout(flight)

    def _reap(self, flight: _InFlight) -> None:
        """The worker's pipe became readable: result, error or EOF.
        *flight* is already out of ``self.inflight``."""
        try:
            blob = flight.conn.recv_bytes()
        except (EOFError, OSError):
            self._dispose(flight)
            code = flight.process.exitcode
            self._failure(flight, "crash",
                          f"worker died without a result "
                          f"(exit code {code})")
            return
        self._dispose(flight)
        try:
            message = pickle.loads(blob)
        except Exception as exc:
            self._failure(flight, "corrupt",
                          f"undecodable worker envelope: {exc}")
            return
        if message[0] == "error":
            self._failure(flight, "exception", message[1])
            return
        _tag, digest, payload = message
        if hashlib.sha256(payload).hexdigest() != digest:
            self._failure(flight, "corrupt",
                          "result payload failed its integrity digest")
            return
        try:
            result = pickle.loads(payload)
        except Exception as exc:
            self._failure(flight, "corrupt",
                          f"result payload failed to unpickle: {exc}")
            return
        if self.policy.verify is not None \
                and not self.policy.verify(result):
            self._failure(flight, "rejected",
                          "verify hook rejected the result")
            return
        self._success(flight, result)

    def _wait_budget(self) -> float:
        """Seconds to block in connection-wait: until the earliest
        watchdog deadline or backoff expiry, capped for liveness."""
        now = self._now()
        horizon = 0.25
        deadlines = [f.deadline for f in self.inflight.values()
                     if f.deadline is not None]
        if deadlines:
            horizon = min(horizon, max(min(deadlines) - now, 0.0))
        if self._pending and len(self.inflight) < self.workers:
            horizon = min(horizon,
                          max(self._pending[0][0] - now, 0.0))
        return max(horizon, 0.0)


__all__ = ["dispatch"]
