"""Canonical cache keys for deterministic compute.

The trial store rests on one question: *when are two computations
guaranteed to produce bit-identical results?*  Answer: when
everything their outcome depends on — the trial function and its
closure state, configuration, parameters and seed lineage —
canonicalises to the same bytes.  This module builds those bytes.

:func:`canonical` maps a parameter structure to a JSON-compatible,
tagged form (stable across processes and dict orderings);
:func:`digest_of` hashes it.  :func:`fingerprint_callable` reduces a
callable to its identity (module, qualname, code hash) plus primitive
closure state — and *refuses* (:class:`Unmemoizable`) callables whose
behaviour depends on state the key cannot see: bound methods (their
``self`` is arbitrary mutable state outside any snapshot) and
closures over non-primitive cells.  Refusal is the safety valve: an
unkeyable computation is simply never cached, so the cache can be
wrong only by doing extra work, never by returning a stale result.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import types
import weakref
from typing import Any, Dict

from repro.config import to_dict as config_to_dict


class Unmemoizable(TypeError):
    """The value cannot be soundly reduced to a cache key."""


class _NestedCode:
    """Stands in for a nested code object inside ``co_consts``.  A code
    object's own repr carries its memory address, which changes with
    every interpreter start; this one reprs as the hash of the nested
    code's material instead."""

    __slots__ = ("digest",)

    def __init__(self, code: types.CodeType):
        self.digest = hashlib.sha256(_code_material(code)).hexdigest()

    def __repr__(self) -> str:
        return f"<code {self.digest}>"


class _SortedFrozenset:
    """Stands in for a ``frozenset`` constant (``x in {"a", "b"}``)
    inside ``co_consts``.  A frozenset of strings reprs in
    ``PYTHONHASHSEED`` order; this one reprs the same way with its
    members sorted by their repr."""

    __slots__ = ("text",)

    def __init__(self, members: frozenset):
        self.text = "frozenset({%s})" % ", ".join(
            sorted(repr(member) for member in members))

    def __repr__(self) -> str:
        return self.text


def _stable_const(const: Any) -> Any:
    if isinstance(const, types.CodeType):
        return _NestedCode(const)
    if isinstance(const, frozenset):
        return _SortedFrozenset(const)
    return const


def _code_material(code: types.CodeType) -> bytes:
    """The bytes a code object's hash covers.  Nested code (lambdas,
    nested defs, comprehensions before Python 3.12) is hashed through
    the same material, recursively, and frozenset constants render
    sorted; code without either keeps exactly the plain ``repr`` of its
    constants."""
    consts = tuple(_stable_const(const) for const in code.co_consts)
    return repr((code.co_code, consts, code.co_names,
                 code.co_varnames)).encode()


#: ``_code_hash`` per code object.  A sweep keys every trial against
#: the same trial function, so its code is hashed once, not per trial.
#: Code objects that compare equal have equal bytecode, names and
#: type-exact constants, hence equal material, so sharing an entry
#: between them is sound; reassigning ``fn.__code__`` looks up the new
#: code object.
_CODE_HASHES: "weakref.WeakKeyDictionary[types.CodeType, str]" = \
    weakref.WeakKeyDictionary()


def _code_hash(fn: Any) -> str:
    code = getattr(fn, "__code__", None)
    if code is None:
        return ""
    digest = _CODE_HASHES.get(code)
    if digest is None:
        digest = hashlib.sha256(_code_material(code)).hexdigest()[:16]
        _CODE_HASHES[code] = digest
    return digest


def fingerprint_callable(fn: Any) -> Any:
    """Canonical identity of a callable, or raise :class:`Unmemoizable`.

    Plain functions (including closures over primitives) and
    ``functools.partial`` wrappers fingerprint; bound methods and
    closures over mutable non-primitive state do not — their behaviour
    depends on objects the key cannot capture.
    """
    if isinstance(fn, functools.partial):
        return {"__partial__": fingerprint_callable(fn.func),
                "args": canonical(fn.args),
                "kwargs": canonical(dict(fn.keywords))}
    if isinstance(fn, types.MethodType):
        raise Unmemoizable(
            f"bound method {fn.__qualname__} closes over live object "
            f"state; it cannot be keyed soundly")
    if isinstance(fn, types.BuiltinFunctionType):
        return {"__fn__": f"{fn.__module__}:{fn.__qualname__}"}
    if isinstance(fn, types.FunctionType):
        cells = []
        for cell in fn.__closure__ or ():
            try:
                value = cell.cell_contents
            except ValueError as exc:  # pragma: no cover - empty cell
                raise Unmemoizable(
                    f"{fn.__qualname__} has an empty closure cell"
                ) from exc
            cells.append(canonical(value))
        return {"__fn__": f"{fn.__module__}:{fn.__qualname__}",
                "code": _code_hash(fn),
                "cells": cells}
    if callable(fn):
        # A dataclass __call__ instance keys by its declared field
        # state plus the class identity; any other instance carries
        # state the key cannot see.
        if dataclasses.is_dataclass(fn) and not isinstance(fn, type):
            return {"__callable__": canonical(fn),
                    "call": f"{type(fn).__module__}:"
                            f"{type(fn).__qualname__}.__call__"}
        raise Unmemoizable(
            f"callable {type(fn).__qualname__} instance state is "
            f"invisible to the cache key")
    raise Unmemoizable(f"{fn!r} is not callable")


def _canonical_dict(value: Dict[Any, Any]) -> Any:
    for k in value:
        if type(k) is not str:
            # Any other key is canonicalised, not string-ified, so 1
            # and "1" never collide; pairs sort by their canonical
            # JSON, key first.
            pairs = [[canonical(k), canonical(v)]
                     for k, v in value.items()]
            return {"__map__": sorted(
                pairs, key=lambda pair: json.dumps(pair, sort_keys=True))}
    return {"__dict__": [[k, canonical(v)]
                         for k, v in sorted(value.items())]}


def canonical(value: Any) -> Any:
    """Reduce *value* to a JSON-compatible canonical structure.

    Handles primitives, bytes, enums, tuples/lists, dicts (sorted
    keys; a dict with any non-``str`` key is tagged ``__map__`` and
    keeps its keys' canonical form), sets/frozensets (sorted),
    registered config dataclasses (via :func:`repro.config.to_dict`),
    generic dataclasses (tagged by qualified name) and callables.
    Raises :class:`Unmemoizable` for anything else.
    """
    # Exact types first: the common case skips the isinstance chain.
    # Subclasses (IntEnum, OrderedDict, namedtuple, ...) fall through
    # to the chain below, which decides for them as it always has.
    kind = type(value)
    if kind is str or kind is int or kind is bool or value is None:
        return value
    if kind is dict:
        return _canonical_dict(value)
    if kind is list:
        return [canonical(v) for v in value]
    if kind is tuple:
        return {"__tuple__": [canonical(v) for v in value]}
    if isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return {"__float__": repr(value)}
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    if isinstance(value, enum.Enum):
        return {"__enum__": f"{type(value).__module__}:"
                            f"{type(value).__qualname__}",
                "value": canonical(value.value)}
    if isinstance(value, tuple):
        return {"__tuple__": [canonical(v) for v in value]}
    if isinstance(value, list):
        return [canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        items = [canonical(v) for v in value]
        return {"__set__": sorted(
            items, key=lambda v: json.dumps(v, sort_keys=True))}
    if isinstance(value, dict):
        return _canonical_dict(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        try:
            return {"__config__": config_to_dict(value)}
        except TypeError:
            pass
        record: Any = {"__dataclass__": f"{type(value).__module__}:"
                                        f"{type(value).__qualname__}"}
        for field in dataclasses.fields(value):
            record[field.name] = canonical(getattr(value, field.name))
        return record
    if callable(value):
        return fingerprint_callable(value)
    raise Unmemoizable(
        f"cannot canonicalise {type(value).__name__!r} value "
        f"{value!r} into a cache key")


#: The one encoder of key text.  ``json.dumps`` with options builds a
#: fresh encoder per call, which cost more than encoding a trial key.
_KEY_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(value: Any) -> str:
    """The canonical structure as deterministic JSON text."""
    return _KEY_ENCODER.encode(canonical(value))


def digest_of(value: Any) -> str:
    """SHA-256 hex digest of :func:`canonical_json`."""
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


def fingerprinted_trial_key(fingerprint: Any, params: Any,
                            seed: int) -> str:
    """:func:`trial_key` for a function already reduced by
    :func:`fingerprint_callable` — the one definition of a key's
    layout, so a sweep fingerprints its trial function once and keys
    every trial through here.  Raises :class:`Unmemoizable` when the
    parameters cannot be keyed."""
    return digest_of({"fn": fingerprint,
                      "params": canonical(params),
                      "seed": seed})


def trial_key(trial_fn: Any, params: Any, seed: int) -> str:
    """The content address of one sweep trial.

    SHA-256 over the trial function's fingerprint, the canonical
    parameters and the derived seed — everything a deterministic
    trial's outcome is a function of.  Raises :class:`Unmemoizable`
    when either the function or the parameters cannot be keyed.
    """
    return fingerprinted_trial_key(fingerprint_callable(trial_fn),
                                   params, seed)


__all__ = [
    "Unmemoizable",
    "canonical",
    "canonical_json",
    "digest_of",
    "fingerprint_callable",
    "fingerprinted_trial_key",
    "trial_key",
]
