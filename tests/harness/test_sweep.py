"""The `repro.harness` determinism contract.

A sweep's outcome must be a pure function of (trial_fn, params,
master_seed, label) — the worker count may change wall-clock time but
never a single bit of the merged result.  These tests pin that
contract on synthetic trials and then on the real thing: a seeded AES
key-recovery sweep run with 1 worker and with N.
"""

import hashlib
import os

import pytest

from repro.harness import (
    FaultPolicy,
    default_workers,
    derive_seed,
    merge_ordered,
    run_resilient_sweep,
)

FAST = FaultPolicy(backoff_base=0.0)

#: A watchdog deadline no trial here comes near: it moves a
#: one-worker sweep into the supervised pool.
WATCHED = FaultPolicy(backoff_base=0.0, timeout=30.0)


def _square_trial(params, seed):
    return params * params


def _slow_for_even_trial(params, seed):
    # Uneven completion times: even items take longer, so a pool's
    # unordered completion really is out of submission order.
    total = 0
    for i in range((params % 2 == 0) * 20_000 + 10):
        total += i
    return params, total


def _seed_echo_trial(params, seed):
    return params, seed


def _sweep(trial_fn, params, **kwargs):
    kwargs.setdefault("policy", FAST)
    return run_resilient_sweep(trial_fn, params, **kwargs)


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(7, 0, "x") == derive_seed(7, 0, "x")
    seeds = {derive_seed(7, i, "x") for i in range(100)}
    assert len(seeds) == 100          # no collisions across indices
    assert derive_seed(7, 0, "x") != derive_seed(8, 0, "x")
    assert derive_seed(7, 0, "x") != derive_seed(7, 0, "y")
    assert all(0 <= s < 2 ** 64 for s in seeds)


def test_derive_seed_hashes_each_seed_once():
    """Seeds are memoised with the bytes of the SHA-256 lineage, so a
    sweep and the matrix built from it hash each cell seed once."""

    def sha(material):
        return int.from_bytes(hashlib.sha256(material).digest()[:8],
                              "big")

    before = derive_seed.cache_info()
    assert derive_seed(7, 3, "memo-once") == sha(b"7:memo-once:3")
    assert derive_seed(7, 3, "memo-once") == sha(b"7:memo-once:3")
    assert derive_seed(7, 3, "memo-once", 2) == sha(b"7:memo-once:3:2")
    after = derive_seed.cache_info()
    assert after.misses == before.misses + 2
    assert after.hits == before.hits + 1


def test_pool_preserves_submission_order():
    items = list(range(40))
    inline = _sweep(_slow_for_even_trial, items, workers=1).results()
    pooled = _sweep(_slow_for_even_trial, items, workers=4).results()
    assert pooled == inline
    assert [item for item, _ in pooled] == items


def test_sweep_empty_and_single():
    for policy in (FAST, WATCHED):
        assert _sweep(_square_trial, [], workers=8,
                      policy=policy).results() == []
        assert _sweep(_square_trial, [3], workers=8,
                      policy=policy).results() == [9]


def test_sweep_hands_each_trial_its_derived_seed():
    sweep = _sweep(_seed_echo_trial, ["a", "b", "c"],
                   master_seed=42, workers=1, label="echo")
    assert len(sweep) == 3
    for trial, (params, seed) in sweep:
        assert params == trial.params
        assert seed == trial.seed == derive_seed(42, trial.index,
                                                 "echo")


def test_sweep_worker_invariant_on_synthetic_trials():
    params = list(range(16))
    serial = _sweep(_seed_echo_trial, params, master_seed=5,
                    workers=1, label="inv")
    parallel = _sweep(_seed_echo_trial, params, master_seed=5,
                      workers=4, label="inv")
    assert serial.results() == parallel.results()
    assert serial.trials == parallel.trials


def test_merge_ordered_folds_in_trial_order():
    assert merge_ordered([1, 2, 3], lambda a, b: a * 10 + b) == 123
    assert merge_ordered([1, 2, 3], lambda a, b: a + b,
                         initial=10) == 16
    with pytest.raises(ValueError):
        merge_ordered([], lambda a, b: a)


def test_default_workers_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert default_workers() == 3
    monkeypatch.setenv("REPRO_WORKERS", "0")
    assert default_workers() == 1
    monkeypatch.setenv("REPRO_WORKERS", "nope")
    assert default_workers() == max(1, os.cpu_count() or 1)


def test_aes_key_recovery_sweep_worker_invariant():
    """Acceptance criterion: the seeded AES key-recovery sweep merges
    to identical results for worker counts 1 and N."""
    from repro.core.attacks.aes_key_recovery import AESKeyRecoveryAttack
    from repro.crypto.aes import encrypt_block

    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    ciphertexts = [encrypt_block(key, b"sixteen byte msg"),
                   encrypt_block(key, b"another message!")]
    attack = AESKeyRecoveryAttack(key)
    serial = attack.run(ciphertexts, workers=1)
    parallel = attack.run(ciphertexts, workers=2)

    assert parallel.nibble_sets == serial.nibble_sets
    assert parallel.recovered == serial.recovered
    assert [a.candidates for a in parallel.attributions] == \
        [a.candidates for a in serial.attributions]
    # And the attack itself worked: every pinned nibble is correct.
    assert serial.all_correct and serial.bytes_recovered > 0
