"""The sharded cell executor: claim, execute, journal, repeat.

A :class:`CellExecutor` is one worker's view of one job.  Any number
of executors — threads of one server, or executors of a server that
restarted mid-job — cooperate on the same job directory with zero
coordination beyond two append-only files:

* the **sweep journal** (:class:`~repro.harness.journal.SweepJournal`,
  atomic append mode) is the single source of completion truth: a
  cell is done iff its result line is in the journal;
* the **cell ledger** (:class:`~repro.service.ledger.CellLedger`)
  shards the *pending* cells: an executor only runs cells it holds a
  live claim on.

The execution loop is: peek the journal → drop completed cells →
claim a batch of unclaimed pending cells → resolve them (trial store
first, under the same :class:`~repro.harness.resilience.StoreSession`
rules as ``run_resilient_sweep``, then
:func:`repro.harness.dispatch.dispatch`) → repeat.  When every
pending cell is claimed by someone else the executor polls the
journal until they land (or their claims lease out, at which point it
claims them itself).  Because cells carry absolute trial indices,
any claim pattern yields bit-identical results — the same guarantee
the dispatcher gives ``run_resilient_sweep``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.harness.dispatch import dispatch
from repro.harness.journal import SweepJournal
from repro.harness.resilience import (
    SKIPPED,
    FaultPolicy,
    StoreSession,
    SweepReport,
    TrialReport,
)
from repro.harness.sweep import Trial, TrialFn, derive_seed
from repro.service.ledger import CellLedger

#: How many cells one claim batch grabs — small enough that shards
#: stay balanced, large enough to amortise the ledger append.
CLAIM_BATCH = 4

#: Seconds between journal polls while waiting on other workers.
POLL_INTERVAL = 0.05

#: The fault policy service jobs run under: the matrix trial converts
#: attack exceptions into error metrics itself, so harness-level
#: faults are infrastructure trouble — retry twice, then record the
#: cell as skipped (``None`` payload) rather than wedging the job.
SERVICE_POLICY = FaultPolicy(max_attempts=3, backoff_base=0.0,
                             on_exhausted="default", default=None)


@dataclass
class CellExecutor:
    """One worker executing its share of one job's cells."""

    trial_fn: TrialFn
    params: List[Any]
    journal_path: Any
    ledger: CellLedger
    worker: str
    master_seed: int = 0
    label: str = ""
    #: Worker processes per claimed batch (see
    #: :func:`repro.harness.dispatch.dispatch`).
    workers: int = 1
    policy: FaultPolicy = SERVICE_POLICY
    store: Any = None
    claim_batch: int = CLAIM_BATCH
    poll_interval: float = POLL_INTERVAL
    #: Called after every loop iteration with the number of journalled
    #: cells — the server's progress hook.
    on_progress: Optional[Callable[[int], None]] = None
    #: Set by the server to abort the loop (e.g. on shutdown).
    should_stop: Optional[Callable[[], bool]] = None
    report: Optional[SweepReport] = field(default=None, init=False)

    def _trials(self) -> List[Trial]:
        return [Trial(index=i,
                      seed=derive_seed(self.master_seed, i, self.label),
                      params=p)
                for i, p in enumerate(self.params)]

    # --- the loop ---------------------------------------------------------

    def run(self) -> Tuple[List[Any], SweepReport]:
        """Cooperate on the job until every cell is journalled.

        Returns the results in trial order plus this worker's
        :class:`~repro.harness.resilience.SweepReport` (cells other
        workers ran appear with resolution ``"journal"``).
        """
        t0 = time.perf_counter()
        trials = self._trials()
        journal = SweepJournal(self.journal_path, atomic=True)
        outcomes: Dict[int, Any] = {}
        reports: Dict[int, TrialReport] = {}
        for index, (_attempt, result) in journal.open(
                self.label, self.master_seed, len(trials)).items():
            outcomes[index] = result
            reports[index] = TrialReport(index=index, attempts=[],
                                         resolution="journal")
        cache = StoreSession(self.store, self.trial_fn, trials)
        try:
            self._loop(trials, journal, cache, outcomes, reports, t0)
        finally:
            journal.close()
        wall = time.perf_counter() - t0
        self.report = SweepReport(
            label=self.label, master_seed=self.master_seed,
            workers=self.workers,
            trials=[reports[t.index] for t in trials
                    if t.index in reports],
            wall_seconds=wall, cache=cache.delta())
        results = [outcomes.get(t.index) for t in trials]
        return results, self.report

    def _loop(self, trials: List[Trial], journal: SweepJournal,
              cache: StoreSession, outcomes: Dict[int, Any],
              reports: Dict[int, TrialReport], t0: float) -> None:
        while True:
            if self.should_stop is not None and self.should_stop():
                return
            pending = [t for t in trials if t.index not in reports]
            if not pending:
                return
            won = set(self.ledger.claim(
                self.worker,
                self.ledger.unclaimed(
                    [t.index for t in pending])[:self.claim_batch]))
            if not won:
                # Everything pending is claimed by someone else: wait
                # for their journal lines (or their leases) to land.
                time.sleep(self.poll_interval)
                self._absorb(journal, outcomes, reports)
                continue
            todo = [t for t in pending if t.index in won]
            # Journal store hits so every other worker sees them as
            # completed.
            for trial in cache.serve(todo, self.policy.verify,
                                     outcomes, reports):
                journal.record(trial.index, 0, trial.seed,
                               outcomes[trial.index])
            todo = [t for t in todo if t.index not in reports]
            if todo:
                dispatch(self.trial_fn, todo, policy=self.policy,
                         master_seed=self.master_seed,
                         label=self.label, workers=self.workers,
                         chaos=None, journal=journal,
                         outcomes=outcomes, reports=reports, t0=t0)
                self._journal_unjournalled(todo, journal, outcomes,
                                           reports)
                cache.persist(todo, outcomes, reports)
            if self.on_progress is not None:
                self.on_progress(len(reports))

    def _absorb(self, journal: SweepJournal,
                outcomes: Dict[int, Any],
                reports: Dict[int, TrialReport]) -> None:
        """Pull other workers' completions out of the journal."""
        for index, (_attempt, result) in journal.peek().items():
            if index not in reports:
                outcomes[index] = result
                reports[index] = TrialReport(
                    index=index, attempts=[], resolution="journal")
        if self.on_progress is not None:
            self.on_progress(len(reports))

    def _journal_unjournalled(self, todo: List[Trial],
                              journal: SweepJournal,
                              outcomes: Dict[int, Any],
                              reports: Dict[int, TrialReport]) -> None:
        """Journal skipped/defaulted resolutions too: the journal is
        the job's completion truth, so a cell that exhausted its
        attempts must still land there (as its fallback payload) or
        every other worker would wait on it forever."""
        for trial in todo:
            report = reports.get(trial.index)
            if report is None or report.resolution == "ok":
                continue  # successes were journalled by dispatch
            result = outcomes.get(trial.index)
            if result is SKIPPED:
                result = None
                outcomes[trial.index] = None
            journal.record(trial.index, 0, trial.seed, result)


__all__ = [
    "CLAIM_BATCH",
    "POLL_INTERVAL",
    "SERVICE_POLICY",
    "CellExecutor",
]
