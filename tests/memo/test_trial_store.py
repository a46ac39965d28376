"""TrialStore: persistence, every poisoning mode, concurrent writers."""

import base64
import hashlib
import json
import multiprocessing
import pickle
import sys
import types

import pytest

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


#: The header fields of a record, in order.
_FIELDS = ("kind", "version", "snapshot_version", "key", "sha256", "seed")


def _rewrite(store, key, mutate):
    """Edit a record's header fields (or its ``result`` bytes)."""
    path = store.path_for(key)
    header, _, payload = path.read_bytes().partition(b"\n")
    record = dict(zip(_FIELDS, header.decode("ascii").split(" ")),
                  result=payload)
    mutate(record)
    path.write_bytes(" ".join(str(record[name]) for name in _FIELDS)
                     .encode("ascii") + b"\n" + record["result"])


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
        result=b"not a pickle",
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


def test_record_is_a_header_line_and_the_raw_pickle(tmp_path):
    store = TrialStore(tmp_path)
    store.put(KEY, 7, [1, 2])
    path = store.path_for(KEY)
    assert path == tmp_path / KEY[:2] / f"{KEY}.trial"
    header, newline, payload = path.read_bytes().partition(b"\n")
    assert newline == b"\n"
    assert header.decode("ascii").split(" ") == [
        "trial", str(STORE_VERSION), str(SNAPSHOT_VERSION), KEY,
        hashlib.sha256(payload).hexdigest(), "7"]
    assert STORE_VERSION == 2
    assert payload == pickle.dumps([1, 2],
                                   protocol=pickle.HIGHEST_PROTOCOL)


def test_a_pickle_holding_newlines_round_trips(tmp_path):
    store = TrialStore(tmp_path)
    value = {"text": "a\nb\n", "raw": b"\n\n", "n": 10}
    store.put(KEY, 7, value)
    payload = store.path_for(KEY).read_bytes().partition(b"\n")[2]
    assert payload.count(b"\n") >= 3
    assert store.get(KEY) == (True, value)


def test_a_truncated_header_is_corrupt(tmp_path):
    store = TrialStore(tmp_path)
    store.put(KEY, 7, "result")
    data = store.path_for(KEY).read_bytes()
    header_end = data.index(b"\n")
    for cut in (5, header_end // 2, header_end - 1, header_end):
        store.path_for(KEY).write_bytes(data[:cut])
        assert store.get(KEY) == (False, None)
    assert store.counts()["corrupt"] == 4
    assert store.counts()["misses"] == 0


def test_an_old_json_record_is_neither_read_nor_counted(tmp_path):
    store = TrialStore(tmp_path)
    payload = pickle.dumps("old-layout")
    old = tmp_path / KEY[:2] / f"{KEY}.json"
    old.parent.mkdir()
    old.write_text(json.dumps({
        "kind": "trial", "key": KEY, "version": 1,
        "snapshot_version": SNAPSHOT_VERSION, "seed": 7,
        "sha256": hashlib.sha256(payload).hexdigest(),
        "result": base64.b64encode(payload).decode("ascii")}) + "\n")
    assert len(store) == 0
    assert store.get(KEY) == (False, None)
    assert store.counts()["misses"] == 1
    store.put(KEY, 7, "new-layout")
    assert len(store) == 1
    assert store.get(KEY) == (True, "new-layout")


@pytest.mark.parametrize("gone", ["class", "module"])
def test_a_result_whose_class_is_gone_is_a_corrupt_miss(tmp_path,
                                                        monkeypatch, gone):
    module = types.ModuleType("_vanishing_store_results")
    exec("class Thing:\n    pass\n", module.__dict__)
    monkeypatch.setitem(sys.modules, module.__name__, module)
    store = TrialStore(tmp_path)
    store.put(KEY, 7, module.Thing())
    if gone == "class":
        del module.Thing
    else:
        monkeypatch.delitem(sys.modules, module.__name__)
    assert store.get(KEY) == (False, None)
    assert store.counts()["corrupt"] == 1


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
