"""TrialStore: persistence, every poisoning mode, concurrent writers."""

import base64
import hashlib
import json
import multiprocessing
import pickle

from repro.memo import TrialStore, resolve_store, trial_key
from repro.memo.store import CACHE_DIR_ENV, STORE_VERSION
from repro.observability import MetricsRegistry
from repro.snapshot.machine import SNAPSHOT_VERSION


def _trial(params, seed):
    return {"params": params, "seed": seed}


KEY = trial_key(_trial, {"secret": 1}, 7)


def test_round_trip_and_miss(tmp_path):
    store = TrialStore(tmp_path, metrics=MetricsRegistry())
    hit, result = store.get(KEY)
    assert (hit, result) == (False, None)

    store.put(KEY, 7, {"verdict": True, "samples": [1, 2, 3]})
    assert len(store) == 1
    hit, result = store.get(KEY)
    assert hit and result == {"verdict": True, "samples": [1, 2, 3]}

    # A second store instance over the same root sees the record:
    # persistence across processes is just persistence across handles.
    hit, result = TrialStore(tmp_path).get(KEY)
    assert hit and result["verdict"] is True

    counts = store.counts()
    assert counts["hits"] == 1 and counts["misses"] == 1
    assert counts["stores"] == 1 and counts["bytes"] > 0
    assert store.metrics.counter("memo.store.hits").value == 1


def _rewrite(store, key, mutate):
    path = store.path_for(key)
    record = json.loads(path.read_text())
    mutate(record)
    path.write_text(json.dumps(record) + "\n")


def test_corrupted_records_are_misses_not_crashes(tmp_path):
    store = TrialStore(tmp_path)
    store.put(KEY, 7, "result")

    store.path_for(KEY).write_text("{not json at all")
    assert store.get(KEY) == (False, None)

    store.put(KEY, 7, "result")
    _rewrite(store, KEY, lambda r: r.update(sha256="0" * 64))
    assert store.get(KEY) == (False, None)

    store.put(KEY, 7, "result")
    _rewrite(store, KEY, lambda r: r.update(
        result=base64.b64encode(b"not a pickle").decode(),
        sha256=hashlib.sha256(b"not a pickle").hexdigest()))
    assert store.get(KEY) == (False, None)

    store.put(KEY, 7, "result")
    _rewrite(store, KEY, lambda r: r.update(key="f" * 64))
    assert store.get(KEY) == (False, None)

    assert store.counts()["corrupt"] == 4
    # Degradation is recoverable: a fresh put serves hits again.
    store.put(KEY, 7, "result")
    assert store.get(KEY) == (True, "result")


def test_undecodable_and_truncated_records_are_corrupt_misses(tmp_path):
    store = TrialStore(tmp_path)
    store.put(KEY, 7, "result")
    text = store.path_for(KEY).read_bytes()

    store.path_for(KEY).write_bytes(b'{"kind": "\xff\xfe\x80"}\n')
    assert store.get(KEY) == (False, None)
    assert store.counts()["corrupt"] == 1
    store.put(KEY, 7, "result")
    assert store.get(KEY) == (True, "result")

    store.path_for(KEY).write_bytes(text[:len(text) // 2])
    assert store.get(KEY) == (False, None)
    assert store.counts()["corrupt"] == 2
    store.put(KEY, 7, "result")
    assert store.get(KEY) == (True, "result")
    assert store.counts()["hits"] == 2


def test_stale_epochs_are_misses(tmp_path):
    store = TrialStore(tmp_path)
    store.put(KEY, 7, "old-world")
    _rewrite(store, KEY, lambda r: r.update(
        snapshot_version=SNAPSHOT_VERSION + 1))
    assert store.get(KEY) == (False, None)

    store.put(KEY, 7, "old-world")
    _rewrite(store, KEY, lambda r: r.update(version=STORE_VERSION + 1))
    assert store.get(KEY) == (False, None)
    assert store.counts()["stale"] == 2


def test_verify_hook_rejects_poisoned_result(tmp_path):
    store = TrialStore(tmp_path)
    store.put(KEY, 7, {"verdict": "implausible"})
    hit, result = store.get(
        KEY, verify=lambda r: r.get("verdict") is True)
    assert (hit, result) == (False, None)
    assert store.counts()["rejected"] == 1


def test_record_is_journal_shaped(tmp_path):
    store = TrialStore(tmp_path)
    store.put(KEY, 7, [1, 2])
    record = json.loads(store.path_for(KEY).read_text())
    assert record["kind"] == "trial"
    assert record["key"] == KEY and record["seed"] == 7
    assert record["version"] == STORE_VERSION
    assert record["snapshot_version"] == SNAPSHOT_VERSION
    payload = base64.b64decode(record["result"])
    assert hashlib.sha256(payload).hexdigest() == record["sha256"]
    assert pickle.loads(payload) == [1, 2]


def _writer(root, key, value, barrier):
    store = TrialStore(root)
    barrier.wait(timeout=30)
    for _ in range(25):
        store.put(key, 7, value)


def test_concurrent_writers_never_corrupt(tmp_path):
    """Many processes hammering the same key (deterministic trials
    write identical results) must leave a readable record."""
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(4)
    value = {"verdict": True, "samples": list(range(50))}
    procs = [ctx.Process(target=_writer,
                         args=(str(tmp_path), KEY, value, barrier))
             for _ in range(4)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0
    store = TrialStore(tmp_path)
    assert store.get(KEY) == (True, value)
    assert len(store) == 1
    leftovers = list(tmp_path.glob("*/*.tmp"))
    assert leftovers == [], f"stray temp files: {leftovers}"


def test_resolve_store_flag_and_env_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    assert resolve_store(None) is None
    assert resolve_store(tmp_path / "a", enabled=False) is None

    explicit = resolve_store(tmp_path / "a")
    assert explicit is not None and explicit.root == tmp_path / "a"

    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "b"))
    from_env = resolve_store(None)
    assert from_env is not None and from_env.root == tmp_path / "b"
    # An explicit directory wins over the environment.
    assert resolve_store(tmp_path / "a").root == tmp_path / "a"
    assert resolve_store(tmp_path / "a", enabled=False) is None
