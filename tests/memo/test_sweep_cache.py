"""Content-addressed trial cache wired into the resilient sweep,
Experiment facade and evaluation matrix."""

import hashlib

from repro.experiment import Experiment
from repro.harness import derive_seed, run_resilient_sweep
from repro.harness.resilience import FaultPolicy
from repro.memo import TrialStore, trial_key

MASTER = 11
LABEL = "memo-sweep"


def _pure(params, seed):
    digest = hashlib.sha256(f"{params}:{seed}".encode()).hexdigest()
    return {"params": params, "seed": seed, "digest": digest}


def _flaky(params, seed):
    # Trial 2's first attempt fails; the retry (attempt-1 seed lineage)
    # succeeds — the shape of a transient worker fault.
    if params == 2 and seed == derive_seed(MASTER, 2, LABEL):
        raise RuntimeError("transient fault")
    return {"params": params, "seed": seed}


def _looks_sound(result):
    return isinstance(result, dict) and "digest" in result


class _Unkeyable:
    """Callable instance: correct as a trial fn, but its state is
    invisible to the fingerprint, so it must never be cached."""

    def __call__(self, params, seed):
        return params * 2


def _sweep(store=None, trial_fn=_pure, n=5, policy=None, journal=None):
    return run_resilient_sweep(
        trial_fn, list(range(n)), master_seed=MASTER, label=LABEL,
        workers=1, store=store, policy=policy, journal=journal)


def test_warm_sweep_is_cached_and_bit_identical(tmp_path):
    reference = _sweep()

    store = TrialStore(tmp_path)
    cold = _sweep(store=store)
    assert cold.results() == reference.results()
    assert cold.report.resolution_counts()["ok"] == 5
    assert cold.report.cache["misses"] == 5
    assert cold.report.cache["stores"] == 5
    assert len(store) == 5

    warm = _sweep(store=store)
    assert warm.report.resolution_counts()["cached"] == 5
    assert warm.results() == cold.results()
    assert repr(warm.results()) == repr(cold.results())
    # cache deltas are per-sweep, not cumulative over the store.
    assert warm.report.cache["hits"] == 5
    assert warm.report.cache["misses"] == 0
    assert warm.report.cache["stores"] == 0


def test_store_accepts_a_path_and_report_serializes(tmp_path):
    cold = _sweep(store=tmp_path / "cache")
    assert (tmp_path / "cache").is_dir()
    payload = cold.report.to_dict()
    assert payload["cache"]["stores"] == 5
    assert payload["resolutions"]["cached"] == 0


def test_retried_trials_are_not_persisted(tmp_path):
    """A retry ran with attempt-k seed lineage; caching it under the
    attempt-0 key would replay the wrong seed, so it is not stored."""
    store = TrialStore(tmp_path)
    policy = FaultPolicy(max_attempts=2, backoff_base=0.0)
    cold = _sweep(store=store, trial_fn=_flaky, policy=policy)
    assert cold.report.resolution_counts()["ok"] == 5
    assert cold.report.trials[2].retries == 1
    assert len(store) == 4, "the retried trial must not be cached"

    warm = _sweep(store=store, trial_fn=_flaky, policy=policy)
    counts = warm.report.resolution_counts()
    assert counts["cached"] == 4 and counts["ok"] == 1
    assert warm.results() == cold.results()


def test_verify_vets_cached_results(tmp_path):
    store = TrialStore(tmp_path)
    reference = _sweep(n=3)
    seed = derive_seed(MASTER, 1, LABEL)
    store.put(trial_key(_pure, 1, seed), seed, {"poisoned": True})

    policy = FaultPolicy(verify=_looks_sound)
    swept = _sweep(store=store, n=3, policy=policy)
    assert swept.results() == reference.results()
    assert swept.report.resolution_counts()["cached"] == 0
    assert swept.report.cache["rejected"] == 1

    # The recompute overwrote the poison; now everything is cacheable.
    warm = _sweep(store=store, n=3, policy=policy)
    assert warm.report.resolution_counts()["cached"] == 3
    assert warm.results() == reference.results()


def test_unkeyable_trial_fn_runs_uncached(tmp_path):
    store = TrialStore(tmp_path)
    swept = _sweep(store=store, trial_fn=_Unkeyable(), n=3)
    assert swept.results() == [0, 2, 4]
    assert swept.report.resolution_counts()["ok"] == 3
    assert swept.report.cache["uncacheable"] == 3
    assert len(store) == 0


def test_unkeyable_params_run_uncached_and_the_rest_cache(tmp_path):
    store = TrialStore(tmp_path)
    params = [1, object(), 3, object()]
    swept = run_resilient_sweep(_pure, params, master_seed=MASTER,
                                label=LABEL, workers=1, store=store)
    assert swept.report.resolution_counts()["ok"] == 4
    assert swept.report.cache["uncacheable"] == 2
    assert swept.report.cache["stores"] == 2
    assert len(store) == 2


def test_journal_resolution_wins_over_store(tmp_path):
    store = TrialStore(tmp_path / "cache")
    journal = tmp_path / "sweep.journal"
    _sweep(store=store, journal=journal)

    resumed = _sweep(store=store, journal=journal)
    counts = resumed.report.resolution_counts()
    assert counts["journal"] == 5 and counts["cached"] == 0
    assert resumed.report.cache["hits"] == 0


def test_experiment_facade_surfaces_cache(tmp_path):
    experiment = Experiment(trial=_pure, sweep=[0, 1, 2],
                            master_seed=MASTER, label=LABEL,
                            store=tmp_path / "cache")
    cold = experiment.run()
    assert cold.cached_trials == 0
    assert cold.cache["stores"] == 3

    warm = experiment.run()          # run() must not mutate the spec
    assert warm.cached_trials == 3
    assert warm.cache["hits"] == 3
    assert warm.results == cold.results
    counter = warm.metrics.counter(
        f"harness.sweep.{LABEL}.cache.hits")
    assert counter.value == 3
    counter = warm.metrics.counter(
        f"harness.sweep.{LABEL}.resolutions.cached")
    assert counter.value == 3


def test_no_store_reports_no_cache(tmp_path):
    swept = _sweep()
    assert swept.report.cache is None
    report = Experiment(trial=_pure, sweep=[0]).run()
    assert report.cache == {} and report.cached_trials == 0
