"""Canonical configuration namespace.

Every tunable of the simulated platform is a plain dataclass; this
module gathers them under one import so experiment scripts stop
reaching into five subsystem modules to assemble a machine::

    from repro.config import MachineConfig, CoreConfig

    cfg = MachineConfig(core=CoreConfig(num_contexts=2))

:class:`MachineConfig` is *defined* here (it composes the subsystem
configs, so it belongs to the top level, not to ``repro.cpu``).  The
subsystem configs stay defined next to the code they configure and
are re-exported:

======================  ============================================
class                   defined in
======================  ============================================
:class:`CoreConfig`     :mod:`repro.cpu.config`
:class:`DefenseHookConfig`  :mod:`repro.cpu.config`
:class:`PortConfig`     :mod:`repro.cpu.config`
:class:`CacheConfig`    :mod:`repro.mem.cache`
:class:`HierarchyConfig`  :mod:`repro.mem.hierarchy`
:class:`TLBConfig`      :mod:`repro.vm.tlb`
:class:`TLBHierarchyConfig`  :mod:`repro.vm.tlb`
:class:`PWCConfig`      :mod:`repro.vm.pwc`
:class:`KernelConfig`   :mod:`repro.kernel.kernel` (lazy)
:class:`EnclaveConfig`  :mod:`repro.sgx.enclave` (lazy)
:class:`MicroScopeConfig`  :mod:`repro.core.module` (lazy)
======================  ============================================

The last three are resolved lazily (PEP 562): they live in modules
that transitively import :mod:`repro.cpu.machine`, and importing them
eagerly here would close an import cycle.

Serialisation
-------------

:func:`to_dict` / :func:`from_dict` round-trip any registered config —
including nested configs, tuples, frozensets and dicts — through a
JSON-compatible dict.  Nested values are tagged (``"__config__"``,
``"__tuple__"``, ``"__frozenset__"``) so the inverse is exact::

    cfg == from_dict(to_dict(cfg))

which is what sweep journals and experiment reports rely on to
persist the configuration alongside results.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Dict, Optional

from repro.cpu.config import CoreConfig, DefenseHookConfig, PortConfig
from repro.mem.cache import CacheConfig
from repro.mem.hierarchy import HierarchyConfig
from repro.vm.pwc import PWCConfig
from repro.vm.tlb import TLBConfig, TLBHierarchyConfig


@dataclass
class MachineConfig:
    """Top-level configuration of the whole simulated platform."""

    core: CoreConfig = field(default_factory=CoreConfig)
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    tlbs: TLBHierarchyConfig = field(default_factory=TLBHierarchyConfig)
    pwc: PWCConfig = field(default_factory=PWCConfig)
    #: Physical memory size in 4 KiB frames (default 256 MiB).
    num_frames: int = 1 << 16
    #: Hardware defense mechanism installed through the core's hook
    #: layer (None = stock platform; see
    #: :mod:`repro.evaluation.defenses.mechanisms`).
    defense: Optional[DefenseHookConfig] = None


#: Configs importable lazily (their modules import repro.cpu.machine).
_LAZY_CONFIGS = {
    "KernelConfig": "repro.kernel.kernel",
    "EnclaveConfig": "repro.sgx.enclave",
    "MicroScopeConfig": "repro.core.module",
}

#: Registry used by :func:`from_dict` to resolve ``"__config__"`` tags.
_CONFIG_TYPES: Dict[str, type] = {
    cls.__name__: cls
    for cls in (MachineConfig, CoreConfig, DefenseHookConfig,
                PortConfig, CacheConfig, HierarchyConfig, TLBConfig,
                TLBHierarchyConfig, PWCConfig)
}


def __getattr__(name: str) -> Any:
    module = _LAZY_CONFIGS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    cls = getattr(importlib.import_module(module), name)
    _CONFIG_TYPES.setdefault(name, cls)
    return cls


def _resolve(tag: str) -> type:
    cls = _CONFIG_TYPES.get(tag)
    if cls is None and tag in _LAZY_CONFIGS:
        cls = __getattr__(tag)
    if cls is None:
        raise ValueError(f"unknown config class {tag!r} "
                         f"(known: {sorted(_CONFIG_TYPES)})")
    return cls


def _encode(value: Any) -> Any:
    if is_dataclass(value) and not isinstance(value, type):
        tag = type(value).__name__
        if tag not in _CONFIG_TYPES and tag in _LAZY_CONFIGS:
            __getattr__(tag)
        if _CONFIG_TYPES.get(tag) is not type(value):
            raise TypeError(
                f"{tag} is not a registered config dataclass")
        record: Dict[str, Any] = {"__config__": tag}
        for f in fields(value):
            record[f.name] = _encode(getattr(value, f.name))
        return record
    if isinstance(value, tuple):
        return {"__tuple__": [_encode(v) for v in value]}
    if isinstance(value, frozenset):
        return {"__frozenset__": sorted(_encode(v) for v in value)}
    if isinstance(value, list):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"cannot serialise {type(value).__name__!r} value {value!r}")


def _decode(value: Any) -> Any:
    if isinstance(value, dict):
        if "__config__" in value:
            cls = _resolve(value["__config__"])
            kwargs = {k: _decode(v) for k, v in value.items()
                      if k != "__config__"}
            return cls(**kwargs)
        if "__tuple__" in value:
            return tuple(_decode(v) for v in value["__tuple__"])
        if "__frozenset__" in value:
            return frozenset(_decode(v) for v in value["__frozenset__"])
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


def to_dict(config: Any) -> Dict[str, Any]:
    """Serialise a config dataclass to a JSON-compatible dict.

    Nested configs, tuples, frozensets and dicts are handled; the
    result is exactly invertible by :func:`from_dict`.
    """
    encoded = _encode(config)
    if not isinstance(encoded, dict) or "__config__" not in encoded:
        raise TypeError("to_dict expects a config dataclass instance")
    return encoded


def from_dict(data: Dict[str, Any]) -> Any:
    """Rebuild a config dataclass from :func:`to_dict` output."""
    if not isinstance(data, dict) or "__config__" not in data:
        raise ValueError("from_dict expects a dict with a "
                         "'__config__' tag")
    return _decode(data)


__all__ = [
    "CacheConfig",
    "CoreConfig",
    "DefenseHookConfig",
    "EnclaveConfig",
    "HierarchyConfig",
    "KernelConfig",
    "MachineConfig",
    "MicroScopeConfig",
    "PWCConfig",
    "PortConfig",
    "TLBConfig",
    "TLBHierarchyConfig",
    "from_dict",
    "to_dict",
]
