"""The cell executor: one job's cells, batch by batch, through the
one dispatcher.

A :class:`CellExecutor` runs every cell of one job.  The **sweep
journal** (:class:`~repro.harness.journal.SweepJournal`) is the
single completion record: a cell is done iff its result line is in
the journal, so a restarted server resumes by reopening it.

The loop walks the pending cells in batches of ``workers`` cells:
serve what it can from the trial store (under the same
:class:`~repro.harness.resilience.StoreSession` rules as
``run_resilient_sweep``), resolve the rest with
:func:`repro.harness.dispatch.dispatch` — the supervised process pool
when ``workers > 1`` — persist, report progress, and check
``should_stop`` before the next batch.  Because cells carry absolute
trial indices, any batching yields bit-identical results, the same
guarantee the dispatcher gives ``run_resilient_sweep``.
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

#: The fault policy service jobs run under: the matrix trial converts
#: attack exceptions into error metrics itself, so harness-level
#: faults are infrastructure trouble — retry twice, then record the
#: cell as skipped (``None`` payload) rather than wedging the job.
SERVICE_POLICY = FaultPolicy(max_attempts=3, backoff_base=0.0,
                             on_exhausted="default", default=None)


@dataclass
class CellExecutor:
    """Runs one job's cells to completion, resuming from its journal."""

    trial_fn: TrialFn
    params: List[Any]
    journal_path: Any
    master_seed: int = 0
    label: str = ""
    #: Pool workers per batch (see
    #: :func:`repro.harness.dispatch.dispatch`); a batch holds this
    #: many cells, so the pool is never capped.
    workers: int = 1
    policy: FaultPolicy = SERVICE_POLICY
    store: Any = None
    #: Called after every batch with the number of resolved cells —
    #: the server's progress hook.
    on_progress: Optional[Callable[[int], None]] = None
    #: Set by the server to stop between batches (e.g. on shutdown).
    should_stop: Optional[Callable[[], bool]] = None
    report: Optional[SweepReport] = field(default=None, init=False)

    def _trials(self) -> List[Trial]:
        return [Trial(index=i,
                      seed=derive_seed(self.master_seed, i, self.label),
                      params=p)
                for i, p in enumerate(self.params)]

    def run(self) -> Tuple[List[Any], SweepReport]:
        """Run every cell not yet in the journal.

        Returns the results in trial order (``None`` for cells left
        pending by ``should_stop``) plus the job's
        :class:`~repro.harness.resilience.SweepReport`, in which cells
        read back from the journal resolve as ``"journal"``.
        """
        t0 = time.perf_counter()
        trials = self._trials()
        journal = SweepJournal(self.journal_path)
        outcomes: Dict[int, Any] = {}
        reports: Dict[int, TrialReport] = {}
        for index, (_attempt, result) in journal.open(
                self.label, self.master_seed, len(trials)).items():
            outcomes[index] = result
            reports[index] = TrialReport(index=index, attempts=[],
                                         resolution="journal")
        cache = StoreSession(self.store, self.trial_fn, trials)
        pending = [t for t in trials if t.index not in reports]
        size = max(self.workers, 1)
        try:
            for start in range(0, len(pending), size):
                if self.should_stop is not None and self.should_stop():
                    break
                self._batch(pending[start:start + size], journal,
                            cache, outcomes, reports, t0)
                if self.on_progress is not None:
                    self.on_progress(len(reports))
        finally:
            journal.close()
        self.report = SweepReport(
            label=self.label, master_seed=self.master_seed,
            workers=self.workers,
            trials=[reports[t.index] for t in trials
                    if t.index in reports],
            wall_seconds=time.perf_counter() - t0, cache=cache.delta())
        return [outcomes.get(t.index) for t in trials], self.report

    def _batch(self, todo: List[Trial], journal: SweepJournal,
               cache: StoreSession, outcomes: Dict[int, Any],
               reports: Dict[int, TrialReport], t0: float) -> None:
        """Resolve one batch and journal every cell of it.

        Dispatch journals successes itself; store hits and cells that
        exhausted their attempts (as their fallback payload) are
        journalled here, so a resumed job never reruns either."""
        for trial in cache.serve(todo, self.policy.verify,
                                 outcomes, reports):
            journal.record(trial.index, 0, trial.seed,
                           outcomes[trial.index])
        todo = [t for t in todo if t.index not in reports]
        dispatch(self.trial_fn, todo, policy=self.policy,
                 master_seed=self.master_seed, label=self.label,
                 workers=self.workers, chaos=None, journal=journal,
                 outcomes=outcomes, reports=reports, t0=t0)
        for trial in todo:
            if reports[trial.index].resolution == "ok":
                continue
            if outcomes[trial.index] is SKIPPED:
                outcomes[trial.index] = None
            journal.record(trial.index, 0, trial.seed,
                           outcomes[trial.index])
        cache.persist(todo, outcomes, reports)


__all__ = [
    "SERVICE_POLICY",
    "CellExecutor",
]
