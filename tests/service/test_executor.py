"""The sharded cell executor: claim/execute/journal loops."""

import json
import threading

from repro.harness import FaultPolicy, SweepJournal, run_resilient_sweep
from repro.memo import TrialStore
from repro.service import CellLedger
from repro.service.executor import CellExecutor

FAST = FaultPolicy(backoff_base=0.0, on_exhausted="default",
                   default=None)


def seed_echo(params, seed):
    return (params, seed)


def always_fail(params, seed):
    raise RuntimeError("never works")


def _make_header(path, label, master_seed, count):
    """The server's job: create the journal header before any
    executor opens the file."""
    journal = SweepJournal(path, atomic=True)
    journal.open(label, master_seed, count)
    journal.close()


def _executor(tmp_path, worker, params, **kwargs):
    journal_path = tmp_path / "journal.jsonl"
    defaults = dict(
        trial_fn=seed_echo, params=params,
        journal_path=journal_path,
        ledger=CellLedger(tmp_path / "ledger.jsonl"),
        worker=worker, master_seed=9, label="exec",
        policy=FAST, poll_interval=0.005)
    defaults.update(kwargs)
    return CellExecutor(**defaults)


def _journal_indices(path):
    return [json.loads(line)["index"]
            for line in path.read_text().splitlines()
            if json.loads(line).get("kind") == "trial"]


def test_single_executor_matches_resilient_sweep(tmp_path):
    params = list(range(5))
    _make_header(tmp_path / "journal.jsonl", "exec", 9, len(params))
    results, report = _executor(tmp_path, "w0", params).run()
    reference = run_resilient_sweep(
        seed_echo, params, master_seed=9, label="exec",
        policy=FAST, workers=1)
    assert results == reference.results()
    assert report.resolution_counts()["ok"] == 5


def test_two_executors_shard_without_overlap(tmp_path):
    params = list(range(8))
    _make_header(tmp_path / "journal.jsonl", "exec", 9, len(params))
    ledger = CellLedger(tmp_path / "ledger.jsonl")
    first = _executor(tmp_path, "w0", params, ledger=ledger,
                      claim_batch=2)
    second = _executor(tmp_path, "w1", params, ledger=ledger,
                       claim_batch=2)
    outputs = {}

    def run(name, executor):
        outputs[name] = executor.run()

    threads = [threading.Thread(target=run, args=("a", first)),
               threading.Thread(target=run, args=("b", second))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    # Both workers see the complete, identical result set...
    reference = run_resilient_sweep(
        seed_echo, params, master_seed=9, label="exec",
        policy=FAST, workers=1)
    assert outputs["a"][0] == reference.results()
    assert outputs["b"][0] == reference.results()
    # ...and every cell was executed exactly once, by exactly one.
    indices = _journal_indices(tmp_path / "journal.jsonl")
    assert sorted(indices) == params
    ok_counts = [out[1].resolution_counts()["ok"]
                 for out in outputs.values()]
    assert sum(ok_counts) == len(params)


def test_second_run_replays_journal_with_zero_reruns(tmp_path):
    params = list(range(4))
    _make_header(tmp_path / "journal.jsonl", "exec", 9, len(params))
    first_results, _ = _executor(tmp_path, "w0", params).run()
    results, report = _executor(tmp_path, "w1", params).run()
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
    _make_header(tmp_path / "journal.jsonl", "exec", 9, len(params))
    results, report = _executor(tmp_path, "w0", params,
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
    journal (as its fallback payload) or other workers would wait on
    it forever."""
    params = list(range(2))
    _make_header(tmp_path / "journal.jsonl", "exec", 9, len(params))
    results, report = _executor(tmp_path, "w0", params,
                                trial_fn=always_fail).run()
    assert results == [None, None]
    assert report.resolution_counts()["defaulted"] == 2
    assert sorted(_journal_indices(tmp_path / "journal.jsonl")) \
        == params
    # And a second worker resolves them straight from the journal.
    results2, report2 = _executor(tmp_path, "w1", params,
                                  trial_fn=always_fail).run()
    assert results2 == [None, None]
    assert report2.resolution_counts()["journal"] == 2
