"""Parallel experiment harness.

Paper-scale experiments (Fig. 10's 10,000 monitor samples, multi-block
AES key recovery, ablation grids) decompose into *independent seeded
trials* whose results merge order-independently.  This package fans
such trials across worker processes — and keeps the sweep alive when
workers misbehave:

* :mod:`repro.harness.sweep` — deterministic seed derivation and
  trial-order merge helpers;
* :mod:`repro.harness.resilience` — the sweep driver,
  :func:`run_resilient_sweep`: watchdog timeouts, bounded retries
  with fresh seed lineage, graceful degradation, journalled resume,
  and the :class:`SweepReport` accounting;
* :mod:`repro.harness.dispatch` — the one trial dispatcher: trials
  run in this process unless chaos, a watchdog timeout or more than
  one effective worker asks for the supervised process pool;
* :mod:`repro.harness.journal` — on-disk checkpointing of completed
  trials so interrupted sweeps resume without rerunning anything;
* :mod:`repro.harness.chaos` — deterministic fault injection
  (:class:`ChaosPlan`) used to *prove* the resilience layer.

Determinism contract: for a fixed ``master_seed`` the result of a
sweep is identical for any worker count (including in-process
``workers=1``), because each trial's seed is derived from the master
seed and the trial index alone, and results are merged in trial order
no matter which worker finished first.  The resilient layer extends
the contract to failures: retry *k* runs with
``derive_seed(master, index, label, attempt=k)``, so merged results
are also invariant to the failure schedule for trials whose outcome
is a pure function of their parameters and seed.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.harness.chaos import FAULT_KINDS, ChaosError, ChaosPlan
    from repro.harness.journal import (
        JournalError,
        JournalMismatch,
        SweepJournal,
    )
    from repro.harness.resilience import (
        SKIPPED,
        FaultPolicy,
        ResilientSweepResult,
        SweepFailure,
        SweepReport,
        TrialAttempt,
        TrialReport,
        collect_sweep_reports,
        default_workers,
        run_resilient_sweep,
    )
    from repro.harness.sweep import (
        SweepResult,
        Trial,
        derive_seed,
        merge_ordered,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.harness.chaos": ("FAULT_KINDS", "ChaosError", "ChaosPlan"),
    "repro.harness.journal": (
        "JournalError", "JournalMismatch", "SweepJournal"),
    "repro.harness.resilience": (
        "SKIPPED", "FaultPolicy", "ResilientSweepResult", "SweepFailure",
        "SweepReport", "TrialAttempt", "TrialReport", "collect_sweep_reports",
        "default_workers", "run_resilient_sweep"),
    "repro.harness.sweep": (
        "SweepResult", "Trial", "derive_seed", "merge_ordered"),
})

__all__ = [
    "FAULT_KINDS",
    "SKIPPED",
    "ChaosError",
    "ChaosPlan",
    "FaultPolicy",
    "JournalError",
    "JournalMismatch",
    "ResilientSweepResult",
    "SweepFailure",
    "SweepJournal",
    "SweepReport",
    "SweepResult",
    "Trial",
    "TrialAttempt",
    "TrialReport",
    "collect_sweep_reports",
    "default_workers",
    "derive_seed",
    "merge_ordered",
    "run_resilient_sweep",
]
