"""Canonical cache keys: determinism, sensitivity, refusal."""

import functools
import hashlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from repro.core.recipes import WalkTuning, replay_n_times
from repro.memo import (
    Unmemoizable,
    canonical,
    canonical_json,
    digest_of,
    fingerprint_callable,
    trial_key,
)
from repro.memo.keys import (
    _code_hash,
    _code_material,
    fingerprinted_trial_key,
)


def _trial(params, seed):
    return (params, seed)


def _other_trial(params, seed):
    return (seed, params)


class _Stateful:
    def __init__(self):
        self.count = 0

    def step(self, event):
        self.count += 1
        return self.count


# --- canonical -----------------------------------------------------------

def test_canonical_is_dict_order_independent():
    a = {"x": 1, "y": (2, 3), "z": {"k": [4.5]}}
    b = {"z": {"k": [4.5]}, "y": (2, 3), "x": 1}
    assert canonical_json(a) == canonical_json(b)


def test_canonical_distinguishes_container_kinds():
    assert canonical_json((1, 2)) != canonical_json([1, 2])
    assert canonical_json({1, 2}) != canonical_json([1, 2])


def test_canonical_set_order_independent():
    assert canonical_json({3, 1, 2}) == canonical_json({2, 3, 1})


def test_canonical_bytes_and_float():
    assert canonical(b"\x00\xff") == {"__bytes__": "00ff"}
    assert canonical(0.1) == {"__float__": repr(0.1)}


def test_canonical_enum_and_config_dataclass():
    tuning = WalkTuning()
    assert canonical(tuning) == canonical(WalkTuning())
    assert canonical_json(tuning) != canonical_json(
        {"upper": "pwc", "leaf": "dram"})


def test_non_string_dict_keys_do_not_collide_with_their_strings():
    assert digest_of({1: "a"}) != digest_of({"1": "a"})
    assert digest_of({(1, 2): "a"}) != digest_of({"(1, 2)": "a"})
    assert digest_of({None: "a"}) != digest_of({"None": "a"})
    assert canonical({1: "a"}) == {"__map__": [[1, "a"]]}


def test_mixed_key_dicts_are_order_independent():
    assert canonical_json({1: "a", "1": "b"}) == \
        canonical_json({"1": "b", 1: "a"})
    assert canonical_json({2: "x", 1: "y"}) == \
        canonical_json({1: "y", 2: "x"})


def test_string_keyed_dicts_keep_their_layout():
    assert canonical({"b": 1, "a": (2,)}) == {
        "__dict__": [["a", {"__tuple__": [2]}], ["b", 1]]}
    assert canonical({}) == {"__dict__": []}


def test_canonical_rejects_opaque_objects():
    with pytest.raises(Unmemoizable):
        canonical(object())


def test_digest_of_stability_and_sensitivity():
    value = {"attack": "port-contention", "samples": 400}
    assert digest_of(value) == digest_of(dict(value))
    assert digest_of(value) != digest_of(
        {"attack": "port-contention", "samples": 401})


# --- callables -----------------------------------------------------------

def test_closure_state_is_part_of_the_fingerprint():
    three, five = replay_n_times(3), replay_n_times(5)
    assert fingerprint_callable(three) == fingerprint_callable(
        replay_n_times(3))
    assert fingerprint_callable(three) != fingerprint_callable(five)


def test_bound_methods_are_unmemoizable():
    with pytest.raises(Unmemoizable):
        fingerprint_callable(_Stateful().step)


def test_partial_fingerprints_through_to_the_target():
    p = functools.partial(_trial, seed=3)
    assert fingerprint_callable(p) == fingerprint_callable(
        functools.partial(_trial, seed=3))
    assert fingerprint_callable(p) != fingerprint_callable(
        functools.partial(_trial, seed=4))


def _with_constant(fn, old, new):
    """*fn* with its type-exact constant *old* replaced by *new*:
    a code object equal to fn's in everything but that constant."""
    consts = tuple(new if type(c) is type(old) and c == old else c
                   for c in fn.__code__.co_consts)
    return types.FunctionType(fn.__code__.replace(co_consts=consts),
                              fn.__globals__, fn.__name__)


def _returns_one():
    return 1.0


def test_code_hash_cache_keeps_type_distinct_constants_apart():
    """1.0, 1 and True hash alike as dict keys; their code must not."""
    variants = [_returns_one, _with_constant(_returns_one, 1.0, 1),
                _with_constant(_returns_one, 1.0, True)]
    assert [type(fn()) for fn in variants] == [float, int, bool]
    first = [_code_hash(fn) for fn in variants]
    again = [_code_hash(fn) for fn in variants]
    assert first == again
    assert len(set(first)) == 3


def test_reassigning_code_changes_the_fingerprint():
    def trial(params, seed):
        return params

    before = fingerprint_callable(trial)
    trial.__code__ = _other_trial.__code__
    after = fingerprint_callable(trial)
    assert after["code"] != before["code"]
    assert after["code"] == fingerprint_callable(_other_trial)["code"]


def test_distinct_functions_fingerprint_differently():
    assert fingerprint_callable(_trial) != fingerprint_callable(
        _other_trial)


# --- trial keys ----------------------------------------------------------

def test_trial_key_covers_fn_params_and_seed():
    base = trial_key(_trial, {"secret": 1}, 42)
    assert base == trial_key(_trial, {"secret": 1}, 42)
    assert base != trial_key(_trial, {"secret": 0}, 42)
    assert base != trial_key(_trial, {"secret": 1}, 43)
    assert base != trial_key(_other_trial, {"secret": 1}, 42)


def test_matrix_cell_params_are_keyable():
    from repro.evaluation.matrix import _cell_trial
    key = trial_key(_cell_trial,
                    ("port-contention", "none", {"measurements": 400}),
                    2019)
    assert len(key) == 64


#: ``trial_key(_cell_trial, ("cf-cache", "none", {}), 1)`` as keyed
#: before nested code objects were hashed by content.  Bytecode differs
#: between Python versions, so the value is pinned per version.
_PINNED_CELL_KEYS = {
    (3, 11): "0fae581c1d97001ea71a230b5e6b8fd8"
             "c4f99e9ca93a4df8eb829715ea6455be",
}

_NESTED_CODE_SOURCE = """
from repro.memo.keys import _code_hash

def trial(params, seed):
    scale = lambda value: value * seed
    def shifted(value):
        return value + 1
    return [shifted(scale(p)) for p in params]

print(_code_hash(trial))
"""


_STRING_SET_SOURCE = """
from repro.memo.keys import _code_hash

def trial(params, seed):
    return params in {"cf-cache", "secret-id", "port", "aes", "rsa",
                      "none", "fences", "jamais-vu"}

print(_code_hash(trial))
"""


def _hashes_under_two_hash_seeds(source):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    hashes = set()
    for hash_seed in ("1", "2"):
        env["PYTHONHASHSEED"] = hash_seed
        proc = subprocess.run(
            [sys.executable, "-c", source],
            capture_output=True, text=True, env=env, timeout=60,
            check=True)
        hashes.add(proc.stdout.strip())
    return hashes


def test_nested_code_hashes_the_same_in_every_interpreter():
    """Lambdas, nested defs and comprehensions compile to nested code
    objects whose repr carries a memory address; the key must not."""
    hashes = _hashes_under_two_hash_seeds(_NESTED_CODE_SOURCE)
    assert len(hashes) == 1
    assert len(hashes.pop()) == 16


def test_string_set_constants_hash_the_same_in_every_interpreter():
    """``x in {"a", "b"}`` compiles to a frozenset constant whose repr
    follows ``PYTHONHASHSEED``; the key must not."""
    hashes = _hashes_under_two_hash_seeds(_STRING_SET_SOURCE)
    assert len(hashes) == 1
    assert len(hashes.pop()) == 16


def test_nested_code_content_is_part_of_the_hash():
    def doubled(params, seed):
        return [p * 2 for p in params] + [(lambda: seed)()]

    def tripled(params, seed):
        return [p * 3 for p in params] + [(lambda: seed)()]

    assert fingerprint_callable(doubled)["code"] != \
        fingerprint_callable(tripled)["code"]


@pytest.mark.parametrize("name", [
    "repro.evaluation.matrix:_cell_trial",
    "repro.evaluation.matrix:_cell_trial_oracle",
    "repro.core.attacks.aes_key_recovery:_extract_block_trial",
    "repro.core.attacks.port_contention:_panel_trial",
])
def test_trial_functions_without_nested_code_keep_their_hash(name):
    """Stored trial keys stay valid: a function with no nested code
    hashes exactly the plain repr of its code, as it always has."""
    import importlib
    module, qualname = name.split(":")
    fn = getattr(importlib.import_module(module), qualname)
    code = fn.__code__
    legacy = repr((code.co_code, code.co_consts, code.co_names,
                   code.co_varnames)).encode()
    assert fingerprint_callable(fn)["code"] == \
        hashlib.sha256(legacy).hexdigest()[:16]
    # The per-code-object cache serves the same hash as a fresh one.
    fresh = hashlib.sha256(_code_material(code)).hexdigest()[:16]
    assert _code_hash(fn) == _code_hash(fn) == fresh


def test_cell_trial_key_is_pinned():
    from repro.evaluation.matrix import _cell_trial
    expected = _PINNED_CELL_KEYS.get(sys.version_info[:2])
    if expected is None:
        pytest.skip("no pinned key for this Python version")
    assert trial_key(_cell_trial, ("cf-cache", "none", {}), 1) == expected


# --- version-independent key pins ------------------------------------------
#
# Trial keys hash the trial function's bytecode, which differs between
# Python versions, so the full-key pin above holds on one version only.
# Everything else in a key is version independent and pinned here: the
# canonical form of the real matrix params, of the tagged value kinds,
# and the {"fn", "params", "seed"} layout under a fixed fingerprint.

#: What ``python -m repro matrix --samples 200`` passes to its
#: port-contention row.
_PORT_OVERRIDES = {"port-contention": {"measurements": 200,
                                       "calibrate_samples": 200}}

_FIXED_FINGERPRINT = {"__fn__": "repro.evaluation.matrix:_cell_trial",
                      "code": "0123456789abcdef", "cells": []}


def _grid_params():
    from repro.evaluation import attack_names, defense_names
    from repro.evaluation.matrix import matrix_params
    return matrix_params(attack_names(), defense_names(), _PORT_OVERRIDES)


def test_matrix_params_canonicalise_to_pinned_bytes():
    params = _grid_params()
    assert len(params) == 77
    assert digest_of(canonical(params)) == (
        "b75f0bbf46e2bb92ec1f98818a49b1b5"
        "45538bc09bf2e011fbaa0d678e78a247")


def test_tagged_values_canonicalise_to_pinned_bytes():
    from repro.core.recipes import WalkLocation
    sample = {"rate": 0.25, "tiny": -3.5e-07, "blob": b"\x00\xff",
              "walk": WalkLocation.DRAM, "pair": (1, "x", None),
              "flags": [True, False]}
    assert digest_of(canonical(sample)) == (
        "63887d0fc9be047216f053df7b32193d"
        "8fcf749000164056273439b97335b450")


def test_trial_key_layout_is_pinned():
    from repro.evaluation.matrix import DEFAULT_LABEL, DEFAULT_MASTER_SEED
    from repro.harness import derive_seed
    keys = "".join(
        fingerprinted_trial_key(
            _FIXED_FINGERPRINT, params,
            derive_seed(DEFAULT_MASTER_SEED, index, DEFAULT_LABEL))
        for index, params in enumerate(_grid_params()))
    assert hashlib.sha256(keys.encode()).hexdigest() == (
        "0e74e514710941ae35dbd8301fbef28e"
        "3c50531f2722f303790c3fc0c4fa42cc")


def test_store_session_keys_equal_trial_key(tmp_path):
    from repro.evaluation.matrix import (
        DEFAULT_LABEL,
        DEFAULT_MASTER_SEED,
        _cell_trial,
    )
    from repro.harness import derive_seed
    from repro.harness.resilience import StoreSession
    from repro.harness.sweep import Trial
    from repro.memo import TrialStore
    trials = [Trial(index=index, params=params,
                    seed=derive_seed(DEFAULT_MASTER_SEED, index,
                                     DEFAULT_LABEL))
              for index, params in enumerate(_grid_params())]
    session = StoreSession(TrialStore(tmp_path), _cell_trial, trials)
    assert len(session.keys) == len(trials)
    for trial in trials:
        assert session.keys[trial.index] == trial_key(
            _cell_trial, trial.params, trial.seed)
