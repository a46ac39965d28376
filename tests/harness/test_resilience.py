"""The fault-tolerant sweep runner: retries, watchdog, degradation."""

import json
import threading
import time

import pytest

from repro.harness import (
    SKIPPED,
    FaultPolicy,
    SweepFailure,
    derive_seed,
    run_resilient_sweep,
)
from repro.harness.resilience import collect_sweep_reports
from repro.observability import HARNESS_TID, EventTracer, MetricsRegistry

FAST = FaultPolicy(backoff_base=0.0)


def square(params, seed):
    return params * params


def seed_echo(params, seed):
    return (params, seed)


class FlakyOnFirstSeed:
    """Fails any attempt that runs with the attempt-0 seed of the
    given indices; seed lineage makes retries distinguishable."""

    def __init__(self, indices, master_seed=0, label=""):
        self.bad_seeds = {derive_seed(master_seed, i, label)
                          for i in indices}

    def __call__(self, params, seed):
        if seed in self.bad_seeds:
            raise RuntimeError("flaky first attempt")
        return (params, seed)


def always_fail(params, seed):
    raise RuntimeError("never works")


# --- inline reference path -------------------------------------------------


def test_inline_matches_derived_seed_reference():
    params = list(range(8))
    plain = [seed_echo(p, derive_seed(3, i, "x"))
             for i, p in enumerate(params)]
    resilient = run_resilient_sweep(seed_echo, params, master_seed=3,
                                    label="x", policy=FAST,
                                    workers=1)
    assert resilient.results() == plain
    assert resilient.report is not None
    assert resilient.report.retries_total == 0
    assert all(t.resolution == "ok" for t in resilient.report.trials)


def test_retry_uses_fresh_seed_lineage():
    params = list(range(4))
    sweep = run_resilient_sweep(
        FlakyOnFirstSeed([1, 3]), params, policy=FAST, workers=1)
    results = sweep.results()
    for index, (p, seed) in enumerate(results):
        expected_attempt = 1 if index in (1, 3) else 0
        assert p == index
        assert seed == derive_seed(0, index, "", expected_attempt)
    report = sweep.report
    assert report.retries_total == 2
    assert report.outcome_counts()["exception"] == 2
    assert [len(t.attempts) for t in report.trials] == [1, 2, 1, 2]


# --- exhaustion modes ------------------------------------------------------


def test_exhausted_raise():
    with pytest.raises(SweepFailure) as excinfo:
        run_resilient_sweep(always_fail, [1], workers=1,
                            policy=FaultPolicy(max_attempts=2,
                                               backoff_base=0.0))
    assert excinfo.value.index == 0
    assert len(excinfo.value.attempts) == 2
    assert "exception" in str(excinfo.value)


def test_exhausted_skip_keeps_slot_alignment():
    policy = FaultPolicy(max_attempts=2, backoff_base=0.0,
                         on_exhausted="skip")
    sweep = run_resilient_sweep(
        FlakyEverySeed([1]), [10, 11, 12], policy=policy, workers=1)
    assert sweep.outcomes[1] is SKIPPED
    assert sweep.results() == [(10, derive_seed(0, 0, "")),
                               (12, derive_seed(0, 2, ""))]
    assert sweep.report.resolution_counts()["skipped"] == 1


def test_exhausted_default_substitutes():
    policy = FaultPolicy(max_attempts=1, backoff_base=0.0,
                         on_exhausted="default", default="sentinel")
    sweep = run_resilient_sweep(
        FlakyEverySeed([0]), [10, 11], policy=policy, workers=1)
    assert sweep.results() == ["sentinel", (11, derive_seed(0, 1, ""))]
    assert sweep.report.trials[0].resolution == "defaulted"


class FlakyEverySeed:
    """Fails *every* attempt of the given indices (any seed in their
    lineage), succeeds elsewhere."""

    def __init__(self, indices, master_seed=0, label="",
                 max_attempts=8):
        self.bad_seeds = {
            derive_seed(master_seed, i, label, attempt)
            for i in indices for attempt in range(max_attempts)}

    def __call__(self, params, seed):
        if seed in self.bad_seeds:
            raise RuntimeError("flaky trial")
        return (params, seed)


# --- verify hook -----------------------------------------------------------


def reject_odd(value):
    return value % 2 == 0


def parity_of_attempt(params, seed):
    # odd on attempt 0 of index 0, even on its retry
    return 1 if seed == derive_seed(0, 0, "") else 2


def test_verify_hook_rejects_and_retries():
    policy = FaultPolicy(backoff_base=0.0, verify=reject_odd)
    sweep = run_resilient_sweep(parity_of_attempt, [0], policy=policy,
                                workers=1)
    assert sweep.results() == [2]
    report = sweep.report
    assert report.outcome_counts()["rejected"] == 1
    assert report.trials[0].attempts[0].outcome == "rejected"
    assert report.trials[0].attempts[1].outcome == "ok"


# --- watchdog (supervised path) -------------------------------------------


def sleep_on_first_seed(params, seed):
    if seed == derive_seed(0, 0, "slow"):
        time.sleep(30.0)
    return params


def test_watchdog_kills_hung_attempt():
    policy = FaultPolicy(timeout=1.0, max_attempts=3,
                         backoff_base=0.0)
    start = time.monotonic()
    sweep = run_resilient_sweep(sleep_on_first_seed, [7, 8],
                                label="slow", policy=policy)
    elapsed = time.monotonic() - start
    assert sweep.results() == [7, 8]
    assert elapsed < 20.0
    assert sweep.report.outcome_counts()["timeout"] == 1


# --- worker-count invariance ----------------------------------------------


def test_worker_count_invariance():
    params = list(range(10))
    solo = run_resilient_sweep(FlakyOnFirstSeed([2, 5]), params,
                               policy=FAST, workers=1)
    multi = run_resilient_sweep(FlakyOnFirstSeed([2, 5]), params,
                                policy=FAST, workers=4)
    assert multi.results() == solo.results()


# --- policy mechanics ------------------------------------------------------


def test_backoff_schedule():
    policy = FaultPolicy(backoff_base=0.1, backoff_factor=2.0,
                         backoff_cap=0.5)
    assert policy.backoff(0) == 0.0
    assert policy.backoff(1) == pytest.approx(0.1)
    assert policy.backoff(2) == pytest.approx(0.2)
    assert policy.backoff(5) == pytest.approx(0.5)  # capped


@pytest.mark.parametrize("kwargs", [
    {"max_attempts": 0},
    {"on_exhausted": "explode"},
    {"timeout": 0.0},
    {"timeout": -1.0},
])
def test_policy_validation(kwargs):
    with pytest.raises(ValueError):
        FaultPolicy(**kwargs)


# --- accounting sinks ------------------------------------------------------


def test_report_records_into_metrics_json():
    metrics = MetricsRegistry()
    run_resilient_sweep(FlakyOnFirstSeed([1]), [0, 1, 2],
                        policy=FAST, metrics=metrics, workers=1)
    dump = json.loads(json.dumps(metrics.dump()))
    assert dump["harness.sweep.trials"] == 3
    assert dump["harness.sweep.attempts"] == 4
    assert dump["harness.sweep.retries"] == 1
    assert dump["harness.sweep.failures.exception"] == 1
    assert dump["harness.sweep.resolutions.ok"] == 3


def test_report_emits_trace_slices():
    tracer = EventTracer(capacity=64)
    run_resilient_sweep(square, [1, 2], label="t", policy=FAST,
                        tracer=tracer, workers=1)
    slices = [e for e in tracer.events() if e.tid == HARNESS_TID]
    assert len(slices) == 2
    assert {e.name for e in slices} == {"t[0]#0", "t[1]#0"}
    assert all(e.args["outcome"] == "ok" for e in slices)


def test_collector_sees_reports():
    with collect_sweep_reports() as reports:
        run_resilient_sweep(square, [1], policy=FAST, label="a",
                            workers=1)
        run_resilient_sweep(square, [2], policy=FAST, label="b",
                            workers=1)
    assert [r.label for r in reports] == ["a", "b"]


def test_collectors_on_two_threads_see_only_their_own_reports():
    """Both threads hold a collector block at once; each one's report
    lands only in its own list."""
    both_collecting = threading.Barrier(2)
    both_ran = threading.Barrier(2)
    seen = {}

    def collect(label):
        with collect_sweep_reports() as reports:
            both_collecting.wait(timeout=30)
            run_resilient_sweep(square, [1], policy=FAST, label=label,
                                workers=1)
            both_ran.wait(timeout=30)
        seen[label] = [r.label for r in reports]

    threads = [threading.Thread(target=collect, args=(label,))
               for label in ("left", "right")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert seen == {"left": ["left"], "right": ["right"]}


def test_report_to_dict_is_json_ready():
    sweep = run_resilient_sweep(FlakyOnFirstSeed([0]), [5],
                                policy=FAST, workers=1)
    payload = json.loads(json.dumps(sweep.report.to_dict()))
    assert payload["attempts_total"] == 2
    assert payload["trials"][0]["attempts"][0]["outcome"] == "exception"
