"""Chaos acceptance: the resilience layer under injected faults.

The contract being proven (ISSUE acceptance criteria):

1. a sweep whose workers crash, hang past the watchdog timeout, raise
   and corrupt results still completes via retries, and its merged
   results are **bit-identical** to a fault-free run;
2. an interrupted journalled sweep, resumed, reruns **zero** completed
   trials;
3. the failure/attempt accounting shows up in exported metrics JSON.

Trials here are *seed-pure* (results depend only on params), exactly
like the simulation trials (a machine is fully seeded from its
parameters), so retries with fresh seed lineage reproduce the same
values.
"""

import json
import pickle

import pytest

from repro.harness import (
    ChaosError,
    ChaosPlan,
    FaultPolicy,
    derive_seed,
    run_resilient_sweep,
)
from repro.observability import MetricsRegistry


def bit_identical(results_a, results_b):
    """Element-wise bit-identity: every merged result serialises to
    exactly the same bytes.  (Whole-list ``pickle.dumps`` is *not*
    used: it memoises shared key-string objects, so it encodes object
    identity across elements, not content.)"""
    return len(results_a) == len(results_b) and all(
        pickle.dumps(a) == pickle.dumps(b)
        for a, b in zip(results_a, results_b))

#: Enough attempts to outlast every plan below; no backoff delays.
PATIENT = FaultPolicy(timeout=2.0, max_attempts=5, backoff_base=0.0)


def pure_trial(params, seed):
    """Seed-pure: the result is a function of params alone."""
    return {"params": params, "value": params * params,
            "blob": bytes(range(params % 7, params % 7 + 16))}


# --- plan mechanics --------------------------------------------------------


def test_plan_rejects_unknown_kind():
    with pytest.raises(ValueError):
        ChaosPlan(faults={(0, 0): "meteor"})


def test_seeded_plan_is_deterministic():
    one = ChaosPlan.seeded(42, 20, rate=0.7)
    two = ChaosPlan.seeded(42, 20, rate=0.7)
    assert one.faults == two.faults
    assert one.faults  # at rate 0.7 over 20 trials, some faults exist
    assert ChaosPlan.seeded(43, 20, rate=0.7).faults != one.faults


def test_mangle_flips_only_targeted_attempt():
    plan = ChaosPlan(faults={(3, 1): "corrupt"})
    payload = b"\x01\x02\x03"
    assert plan.mangle(3, 1, payload) != payload
    assert plan.mangle(3, 0, payload) == payload
    assert plan.mangle(0, 1, payload) == payload


def test_chaos_exception_is_catchable():
    plan = ChaosPlan(faults={(0, 0): "exception"})
    with pytest.raises(ChaosError):
        plan.before(0, 0)


# --- the acceptance property ----------------------------------------------


def test_chaos_run_is_bit_identical_to_fault_free():
    """Crashes + hangs past the timeout + exceptions + corrupted
    results: the sweep completes via retries and merges bit-identical
    to a clean run."""
    params = list(range(8))
    plan = ChaosPlan(faults={
        (0, 0): "crash",
        (1, 0): "hang",
        (2, 0): "exception",
        (3, 0): "corrupt",
        (4, 0): "crash", (4, 1): "corrupt",   # two-deep ladder
        (5, 0): "exception", (5, 1): "hang",
    }, hang_seconds=30.0)

    clean = run_resilient_sweep(pure_trial, params, master_seed=11,
                                label="acceptance", workers=1)
    chaotic = run_resilient_sweep(pure_trial, params, master_seed=11,
                                  label="acceptance", policy=PATIENT,
                                  chaos=plan, workers=4)

    assert chaotic.results() == clean.results()
    assert bit_identical(chaotic.results(), clean.results())

    report = chaotic.report
    counts = report.outcome_counts()
    assert counts["crash"] == 2
    assert counts["timeout"] == 2      # hangs die by watchdog
    assert counts["exception"] == 2
    assert counts["corrupt"] == 2
    assert report.retries_total == 8
    assert all(t.resolution == "ok" for t in report.trials)


def test_chaos_worker_count_invariance():
    params = list(range(6))
    plan = ChaosPlan.seeded(5, len(params), rate=0.6,
                            kinds=("exception", "corrupt"),
                            max_faults_per_trial=2)
    runs = [run_resilient_sweep(pure_trial, params, master_seed=5,
                                label="wc", policy=PATIENT,
                                chaos=plan, workers=workers)
            for workers in (1, 3)]
    assert bit_identical(runs[0].results(), runs[1].results())
    # The *failure schedule* is also identical: same plan, same keys.
    assert [len(t.attempts) for t in runs[0].report.trials] == \
        [len(t.attempts) for t in runs[1].report.trials]


# --- journalled resume -----------------------------------------------------


def fail_if_called(params, seed):
    raise AssertionError("journalled trial was rerun")


def test_resumed_sweep_reruns_zero_completed_trials(tmp_path):
    journal_path = tmp_path / "resume.journal"
    params = list(range(5))

    # First run is interrupted: trial 3 never completes (its ladder is
    # exhausted and skipped), everything else lands in the journal.
    exhaust_3 = ChaosPlan(faults={
        (3, a): "exception" for a in range(PATIENT.max_attempts)})
    skip = FaultPolicy(timeout=2.0, max_attempts=PATIENT.max_attempts,
                       backoff_base=0.0, on_exhausted="skip")
    first = run_resilient_sweep(pure_trial, params, master_seed=9,
                                label="resume", policy=skip,
                                chaos=exhaust_3, journal=journal_path,
                                workers=2)
    assert first.report.resolution_counts()["skipped"] == 1

    # Resume against the journal with a trial fn that *proves* reruns:
    # only the missing trial may execute.
    calls = []

    def only_missing(params, seed):
        calls.append(params)
        return pure_trial(params, seed)

    resumed = run_resilient_sweep(only_missing, params, master_seed=9,
                                  label="resume",
                                  policy=FaultPolicy(backoff_base=0.0),
                                  journal=journal_path, workers=1)
    assert calls == [3]
    assert bit_identical(
        resumed.results(),
        run_resilient_sweep(pure_trial, params, master_seed=9,
                            label="resume", workers=1).results())
    resolutions = resumed.report.resolution_counts()
    assert resolutions["journal"] == 4
    assert resolutions["ok"] == 1

    # A third run reruns nothing at all.
    final = run_resilient_sweep(fail_if_called, params, master_seed=9,
                                label="resume",
                                policy=FaultPolicy(backoff_base=0.0),
                                journal=journal_path, workers=1)
    assert final.report.resolution_counts()["journal"] == 5
    assert bit_identical(final.results(), resumed.results())


# --- metrics export --------------------------------------------------------


def test_chaos_accounting_reaches_metrics_json():
    metrics = MetricsRegistry()
    plan = ChaosPlan(faults={(0, 0): "exception", (1, 0): "corrupt"})
    run_resilient_sweep(pure_trial, [4, 5, 6], master_seed=2,
                        label="chaotic", policy=PATIENT, chaos=plan,
                        workers=2, metrics=metrics)
    dump = json.loads(json.dumps(metrics.dump()))
    assert dump["harness.sweep.chaotic.trials"] == 3
    assert dump["harness.sweep.chaotic.failures.exception"] == 1
    assert dump["harness.sweep.chaotic.failures.corrupt"] == 1
    assert dump["harness.sweep.chaotic.retries"] == 2
    assert dump["harness.sweep.chaotic.resolutions.ok"] == 3
    assert "harness.sweep.chaotic.wall_seconds" in dump


def test_seed_lineage_under_chaos_is_fresh():
    """Retried attempts run with the derived attempt-k seed (so
    seed-*dependent* trials legitimately differ after retries — the
    documented fresh-lineage contract)."""
    plan = ChaosPlan(faults={(0, 0): "exception"})
    sweep = run_resilient_sweep(lambda p, s: s, [0], master_seed=4,
                                label="lineage", policy=PATIENT,
                                chaos=plan, workers=1)
    assert sweep.results() == [derive_seed(4, 0, "lineage", attempt=1)]
