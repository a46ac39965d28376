"""The trial dispatcher: engine selection and engine parity.

``repro.harness.dispatch.dispatch`` runs trials in-process unless
chaos, a watchdog timeout or more than one effective worker asks for
the supervised process pool.  Whichever engine runs them, the same
trials must fill the same outcomes, the same seeds, the same journal
records and the same ``SweepReport`` resolutions."""

import json
import os

import pytest

from repro.harness import (
    ChaosPlan,
    FaultPolicy,
    derive_seed,
    run_resilient_sweep,
)

FAST = FaultPolicy(backoff_base=0.0)

#: Engine configurations compared against the in-process reference:
#: ``inline`` stays in this process, ``pool`` fans out over two
#: workers, ``timeout`` takes the pool at one worker for its watchdog.
ENGINES = {
    "inline": dict(workers=1),
    "pool": dict(workers=2),
    "timeout": dict(workers=1,
                    policy=FaultPolicy(backoff_base=0.0, timeout=30.0)),
}


def seed_echo(params, seed):
    return (params, seed)


def flaky_even_first(params, seed):
    """Even params fail on their attempt-0 seed (retries succeed)."""
    if params % 2 == 0 and seed == derive_seed(7, params, "par"):
        raise RuntimeError("flaky attempt 0")
    return (params, seed)


def report_pid(params, seed):
    return os.getpid()


def _sweep(trial_fn, params, engine, **kwargs):
    options = {"policy": FAST, **ENGINES[engine], **kwargs}
    return run_resilient_sweep(trial_fn, params, **options)


# --- engine selection ------------------------------------------------------


def test_dispatch_selects_the_pool_only_when_asked():
    here = os.getpid()

    def pids(**kwargs):
        kwargs.setdefault("policy", FAST)
        return run_resilient_sweep(report_pid, [0, 1], **kwargs).results()

    assert pids(workers=1) == [here, here]
    # Each trigger alone moves every attempt into a worker process.
    for trigger in (dict(workers=2),
                    dict(workers=1, policy=FaultPolicy(
                        backoff_base=0.0, timeout=30.0)),
                    dict(workers=1, chaos=ChaosPlan(faults={}))):
        assert here not in pids(**trigger), trigger
    # workers=2 over one trial is one effective worker: in-process.
    assert run_resilient_sweep(report_pid, [0], policy=FAST,
                               workers=2).results() == [here]


# --- cross-engine parity ---------------------------------------------------


@pytest.mark.parametrize("engine", ["inline", "pool", "timeout"])
def test_backend_parity_results_and_report(engine):
    reference = _sweep(seed_echo, list(range(6)), "inline",
                       master_seed=7, label="par")
    other = _sweep(seed_echo, list(range(6)), engine, master_seed=7,
                   label="par")
    assert other.results() == reference.results()
    assert ([t.seed for t in other.trials]
            == [t.seed for t in reference.trials])
    assert (other.report.resolution_counts()
            == reference.report.resolution_counts())


@pytest.mark.parametrize("engine", ["inline", "pool", "timeout"])
def test_backend_parity_under_retries(engine):
    reference = _sweep(flaky_even_first, list(range(5)), "inline",
                       master_seed=7, label="par")
    other = _sweep(flaky_even_first, list(range(5)), engine,
                   master_seed=7, label="par")
    assert other.results() == reference.results()
    # Same trials retried, same attempt counts.
    assert ([len(t.attempts) for t in other.report.trials]
            == [len(t.attempts) for t in reference.report.trials])


def _journal_trials(path):
    records = [json.loads(line)
               for line in path.read_text().splitlines()]
    return {r["index"]: (r["attempt"], r["seed"], r["sha256"])
            for r in records if r["kind"] == "trial"}


@pytest.mark.parametrize("engine", ["inline", "pool", "timeout"])
def test_backend_parity_journal_records(engine, tmp_path):
    reference_path = tmp_path / "reference.jsonl"
    _sweep(seed_echo, list(range(4)), "inline", master_seed=3,
           label="jp", journal=reference_path)
    path = tmp_path / f"{engine}.jsonl"
    _sweep(seed_echo, list(range(4)), engine, master_seed=3,
           label="jp", journal=path)
    trials = _journal_trials(path)
    assert sorted(trials) == [0, 1, 2, 3]
    # Attempts, seeds and payload digests are engine-invariant.
    assert trials == _journal_trials(reference_path)
    assert ({i: seed for i, (_, seed, _) in trials.items()}
            == {i: derive_seed(3, i, "jp") for i in range(4)})
