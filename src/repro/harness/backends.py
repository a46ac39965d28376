"""Trial execution backends.

Every trial dispatch — :func:`repro.harness.run_resilient_sweep` and
the job service's cell executors alike — runs through one small
interface, so a new execution substrate (a remote worker, say) is one
:class:`ExecutionBackend` subclass passed by instance, with no change
to the sweep driver:

* :class:`ExecutionRequest` — everything a backend needs to resolve a
  set of trials: the trial function, the *todo* list (absolute trial
  indices, so seed lineage survives arbitrary sharding), the
  :class:`~repro.harness.resilience.FaultPolicy`, the journal, and
  the shared ``outcomes``/``reports`` dictionaries to fill in;
* :class:`ExecutionBackend` — ``execute(request)``;
* :func:`resolve_backend` / :func:`backend_names` — the fixed
  name → backend map below.

Named backends:

========  ==========================================================
name      behaviour
========  ==========================================================
inline    every attempt runs in this process (no pickling, no
          watchdog) — the reference execution
pool      every attempt runs in its own supervised worker process
          (watchdog timeouts, crash containment, chaos injection)
scalar    auto: ``pool`` when chaos, a watchdog timeout or >1 worker
          asks for process isolation, else ``inline``
========  ==========================================================

Every backend honours the same contract: a resolved trial lands in
``request.outcomes[index]`` / ``request.reports[index]`` and (when a
journal is attached) is journalled exactly once, so results are
bit-identical across backends — proven by
``tests/harness/test_backends.py``.
"""

from __future__ import annotations

import abc
import hashlib
import heapq
import multiprocessing
import pickle
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from types import MappingProxyType
from typing import (
    Any,
    ClassVar,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.harness.journal import SweepJournal
from repro.harness.resilience import (
    SKIPPED,
    FaultPolicy,
    SweepFailure,
    TrialAttempt,
    TrialReport,
)
from repro.harness.sweep import Trial, TrialFn, derive_seed


@dataclass
class ExecutionRequest:
    """One batch of trials for a backend to resolve.

    ``todo`` carries :class:`~repro.harness.sweep.Trial` objects with
    *absolute* sweep indices: retry seeds derive from
    ``(master_seed, trial.index, label, attempt)``, so a backend
    handed any subset of a sweep (a service shard, the tail after a
    journal resume) produces exactly the results the full sweep
    would.  Backends fill ``outcomes``/``reports`` keyed by those
    indices and journal each success at most once.
    """

    trial_fn: TrialFn
    todo: Sequence[Trial]
    policy: FaultPolicy
    master_seed: int = 0
    label: str = ""
    #: Parallelism hint; backends may clamp it to ``len(todo)``.
    workers: int = 1
    #: Optional :class:`~repro.harness.chaos.ChaosPlan` (process
    #: backends only).
    chaos: Any = None
    journal: Optional[SweepJournal] = None
    outcomes: Dict[int, Any] = field(default_factory=dict)
    reports: Dict[int, TrialReport] = field(default_factory=dict)
    #: ``time.perf_counter()`` origin for attempt timestamps; filled
    #: on first use when left at ``None``.
    t0: Optional[float] = None

    def clock_origin(self) -> float:
        """The request's perf-counter origin (set on first call)."""
        if self.t0 is None:
            self.t0 = time.perf_counter()
        return self.t0


class ExecutionBackend(abc.ABC):
    """One way of turning a todo list into outcomes."""

    #: Key in :data:`BACKENDS` (``run_resilient_sweep(backend=...)``).
    name: ClassVar[str] = ""

    @abc.abstractmethod
    def execute(self, request: ExecutionRequest) -> None:
        """Resolve every trial in ``request.todo``."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


# --- worker side ----------------------------------------------------------


def _mp_context():
    """Prefer fork (cheap, inherits the imported simulator); fall back
    to the platform default where fork is unavailable."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _attempt_worker(fn, params, seed, chaos, index, attempt, conn):
    """Run one attempt in a worker process and ship the result with an
    integrity digest.  Chaos hooks run here — inside the blast radius
    the supervisor is designed to contain."""
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


# --- supervisor (pool engine) ---------------------------------------------


@dataclass
class _InFlight:
    trial: Trial
    attempt: int
    seed: int
    process: Any
    conn: Any
    started: float       # seconds since sweep start
    deadline: Optional[float]


class _TrialState:
    __slots__ = ("trial", "attempts")

    def __init__(self, trial: Trial):
        self.trial = trial
        self.attempts: List[TrialAttempt] = []


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
        self.workers = max(workers, 1)
        self.chaos = chaos
        self.journal = journal
        self.outcomes = outcomes
        self.reports = reports
        self.t0 = t0
        self.ctx = _mp_context()
        self.states = {t.index: _TrialState(t) for t in todo}
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

    def _seed_for(self, trial: Trial, attempt: int) -> int:
        if attempt == 0:
            return trial.seed
        return derive_seed(self.master_seed, trial.index, self.label,
                           attempt)

    def _spawn(self, trial: Trial, attempt: int) -> None:
        seed = self._seed_for(trial, attempt)
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

    def _attempt_record(self, flight: _InFlight,
                        outcome: str, error: str) -> TrialAttempt:
        return TrialAttempt(
            attempt=flight.attempt, outcome=outcome, seed=flight.seed,
            started=flight.started,
            duration=max(self._now() - flight.started, 0.0),
            error=error)

    def _success(self, flight: _InFlight, result: Any) -> None:
        state = self.states[flight.trial.index]
        state.attempts.append(
            self._attempt_record(flight, "ok", ""))
        self.outcomes[flight.trial.index] = result
        self.reports[flight.trial.index] = TrialReport(
            index=flight.trial.index, attempts=state.attempts,
            resolution="ok")
        if self.journal is not None:
            self.journal.record(flight.trial.index, flight.attempt,
                                flight.seed, result)

    def _failure(self, flight: _InFlight, outcome: str,
                 error: str) -> None:
        # The flight is already out of self.inflight by the time any
        # failure is recorded.
        state = self.states[flight.trial.index]
        state.attempts.append(
            self._attempt_record(flight, outcome, error))
        next_attempt = flight.attempt + 1
        if next_attempt < self.policy.max_attempts:
            self._push(flight.trial, next_attempt,
                       self._now() + self.policy.backoff(next_attempt))
            return
        self._exhausted(flight.trial, state)

    def _exhausted(self, trial: Trial, state: _TrialState) -> None:
        policy = self.policy
        if policy.on_exhausted == "raise":
            self.reports[trial.index] = TrialReport(
                index=trial.index, attempts=state.attempts,
                resolution="failed")
            self._shutdown()
            raise SweepFailure(trial.index, state.attempts)
        if policy.on_exhausted == "skip":
            self.outcomes[trial.index] = SKIPPED
            resolution = "skipped"
        else:
            self.outcomes[trial.index] = policy.default
            resolution = "defaulted"
        self.reports[trial.index] = TrialReport(
            index=trial.index, attempts=state.attempts,
            resolution=resolution)

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


# --- inline engine --------------------------------------------------------


def _run_inline(trial_fn: TrialFn, todo: Sequence[Trial], *,
                policy: FaultPolicy, master_seed: int, label: str,
                journal: Optional[SweepJournal],
                outcomes: Dict[int, Any],
                reports: Dict[int, TrialReport], t0: float) -> None:
    """Single-worker, no-watchdog path: runs attempts in-process (no
    pickling), which is the reference execution the supervised path
    must reproduce."""
    for trial in todo:
        attempts: List[TrialAttempt] = []
        resolved = False
        for attempt in range(policy.max_attempts):
            if attempt:
                delay = policy.backoff(attempt)
                if delay:
                    time.sleep(delay)
            seed = (trial.seed if attempt == 0
                    else derive_seed(master_seed, trial.index, label,
                                     attempt))
            started = time.perf_counter() - t0
            try:
                result = trial_fn(trial.params, seed)
                duration = time.perf_counter() - t0 - started
                if policy.verify is not None \
                        and not policy.verify(result):
                    attempts.append(TrialAttempt(
                        attempt=attempt, outcome="rejected",
                        seed=seed, started=started, duration=duration,
                        error="verify hook rejected the result"))
                    continue
                attempts.append(TrialAttempt(
                    attempt=attempt, outcome="ok", seed=seed,
                    started=started, duration=duration))
                outcomes[trial.index] = result
                reports[trial.index] = TrialReport(
                    index=trial.index, attempts=attempts,
                    resolution="ok")
                if journal is not None:
                    journal.record(trial.index, attempt, seed, result)
                resolved = True
                break
            except Exception as exc:
                duration = time.perf_counter() - t0 - started
                attempts.append(TrialAttempt(
                    attempt=attempt, outcome="exception", seed=seed,
                    started=started, duration=duration,
                    error=f"{type(exc).__name__}: {exc}"))
        if resolved:
            continue
        if policy.on_exhausted == "raise":
            reports[trial.index] = TrialReport(
                index=trial.index, attempts=attempts,
                resolution="failed")
            raise SweepFailure(trial.index, attempts)
        if policy.on_exhausted == "skip":
            outcomes[trial.index] = SKIPPED
            resolution = "skipped"
        else:
            outcomes[trial.index] = policy.default
            resolution = "defaulted"
        reports[trial.index] = TrialReport(
            index=trial.index, attempts=attempts,
            resolution=resolution)


# --- the backends ---------------------------------------------------------


class InlineBackend(ExecutionBackend):
    """Every attempt runs in this process — the reference execution."""

    name = "inline"

    def execute(self, request: ExecutionRequest) -> None:
        if request.chaos is not None:
            raise ValueError(
                "chaos injection needs process isolation; use the "
                "'pool' (or auto 'scalar') backend")
        _run_inline(request.trial_fn, request.todo,
                    policy=request.policy,
                    master_seed=request.master_seed,
                    label=request.label, journal=request.journal,
                    outcomes=request.outcomes,
                    reports=request.reports,
                    t0=request.clock_origin())


class PoolBackend(ExecutionBackend):
    """Every attempt runs in its own supervised worker process."""

    name = "pool"

    def execute(self, request: ExecutionRequest) -> None:
        if not request.todo:
            return
        _Supervisor(request.trial_fn, request.todo,
                    policy=request.policy,
                    master_seed=request.master_seed,
                    label=request.label,
                    workers=min(max(request.workers, 1),
                                len(request.todo)),
                    chaos=request.chaos, journal=request.journal,
                    outcomes=request.outcomes,
                    reports=request.reports,
                    t0=request.clock_origin()).run()


class ScalarBackend(ExecutionBackend):
    """Auto-select: process isolation only when something asks for it
    (chaos, a watchdog timeout, or more than one worker)."""

    name = "scalar"

    def execute(self, request: ExecutionRequest) -> None:
        supervised = (request.chaos is not None
                      or request.policy.timeout is not None
                      or min(request.workers,
                             max(len(request.todo), 1)) > 1)
        engine: ExecutionBackend = (_POOL if supervised else _INLINE)
        engine.execute(request)


_INLINE = InlineBackend()
_POOL = PoolBackend()

#: Name → backend instance (read-only).  Backends are stateless; one
#: shared instance per name is safe across sweeps and threads.
BACKENDS: Mapping[str, ExecutionBackend] = MappingProxyType(
    {backend.name: backend
     for backend in (_INLINE, _POOL, ScalarBackend())})


def backend_names() -> Tuple[str, ...]:
    """The named backends, sorted."""
    return tuple(sorted(BACKENDS))


def resolve_backend(backend: Any) -> ExecutionBackend:
    """Map a name (or an :class:`ExecutionBackend` instance) to the
    backend that will run the sweep; unknown names raise
    ``ValueError`` listing the named backends."""
    if isinstance(backend, ExecutionBackend):
        return backend
    try:
        return BACKENDS[backend]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown sweep backend {backend!r}; expected one of "
            f"{', '.join(backend_names())} or an ExecutionBackend "
            f"instance") from None


__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "ExecutionRequest",
    "InlineBackend",
    "PoolBackend",
    "ScalarBackend",
    "backend_names",
    "resolve_backend",
]
