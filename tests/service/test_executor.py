"""The cell executor: store, dispatch and journal, batch by batch."""

import json

from repro.harness import FaultPolicy, run_resilient_sweep
from repro.memo import TrialStore
from repro.service.executor import CellExecutor

FAST = FaultPolicy(backoff_base=0.0, on_exhausted="default",
                   default=None)


def seed_echo(params, seed):
    return (params, seed)


def always_fail(params, seed):
    raise RuntimeError("never works")


def _executor(tmp_path, params, **kwargs):
    defaults = dict(
        trial_fn=seed_echo, params=params,
        journal_path=tmp_path / "journal.jsonl",
        master_seed=9, label="exec", policy=FAST)
    defaults.update(kwargs)
    return CellExecutor(**defaults)


def _journal_indices(path):
    return [json.loads(line)["index"]
            for line in path.read_text().splitlines()
            if json.loads(line).get("kind") == "trial"]


def test_single_executor_matches_resilient_sweep(tmp_path):
    params = list(range(5))
    results, report = _executor(tmp_path, params).run()
    reference = run_resilient_sweep(
        seed_echo, params, master_seed=9, label="exec",
        policy=FAST, workers=1)
    assert results == reference.results()
    assert report.resolution_counts()["ok"] == 5


def test_second_run_replays_journal_with_zero_reruns(tmp_path):
    params = list(range(4))
    first_results, _ = _executor(tmp_path, params).run()
    results, report = _executor(tmp_path, params).run()
    assert results == first_results
    counts = report.resolution_counts()
    assert counts["journal"] == 4
    assert counts["ok"] == 0
    assert sorted(_journal_indices(tmp_path / "journal.jsonl")) \
        == params


def test_store_hits_resolve_cached_and_journal(tmp_path):
    params = list(range(3))
    store = TrialStore(tmp_path / "store")
    # Warm the store through the ordinary sweep path.
    run_resilient_sweep(seed_echo, params, master_seed=9,
                        label="exec", policy=FAST, workers=1,
                        store=store)
    results, report = _executor(tmp_path, params,
                                store=store).run()
    counts = report.resolution_counts()
    assert counts["cached"] == 3
    assert counts["ok"] == 0
    # Cached hits are journalled: completion truth stays the journal.
    assert sorted(_journal_indices(tmp_path / "journal.jsonl")) \
        == params
    reference = run_resilient_sweep(
        seed_echo, params, master_seed=9, label="exec",
        policy=FAST, workers=1)
    assert results == reference.results()


def test_exhausted_cells_are_journalled_as_defaults(tmp_path):
    """A cell that exhausts its attempts must still land in the
    journal (as its fallback payload) so a resumed job does not rerun
    it."""
    params = list(range(2))
    results, report = _executor(tmp_path, params,
                                trial_fn=always_fail).run()
    assert results == [None, None]
    assert report.resolution_counts()["defaulted"] == 2
    assert sorted(_journal_indices(tmp_path / "journal.jsonl")) \
        == params
    # And a second run resolves them straight from the journal.
    results2, report2 = _executor(tmp_path, params,
                                  trial_fn=always_fail).run()
    assert results2 == [None, None]
    assert report2.resolution_counts()["journal"] == 2
