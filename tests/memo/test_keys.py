"""Canonical cache keys: determinism, sensitivity, refusal."""

import functools
import hashlib
import os
import subprocess
import sys
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


def test_cell_trial_key_is_pinned():
    from repro.evaluation.matrix import _cell_trial
    expected = _PINNED_CELL_KEYS.get(sys.version_info[:2])
    if expected is None:
        pytest.skip("no pinned key for this Python version")
    assert trial_key(_cell_trial, ("cf-cache", "none", {}), 1) == expected
