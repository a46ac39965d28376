"""Stable content digests of machine snapshots.

:func:`state_digest` reduces a :class:`~repro.snapshot.machine.
MachineSnapshot` to a SHA-256 that is a pure function of the captured
*logical* state: two snapshots of bit-identical platform states —
taken at different times, in different processes, or from
independently built environments — produce the same digest, and a
snapshot's digest does not change while the machine runs on.
The oracle identity tests use it as their equality check.

A plain ``pickle.dumps`` of the snapshot payload is *not* stable,
because capture payloads reach live identity wiring (the kernel
shares its :class:`~repro.kernel.process.Process` objects by
reference, an enclave holds its :class:`~repro.kernel.kernel.Kernel`,
processes hold the live :class:`~repro.mem.physical.PhysicalMemory`,
recipes hold attack callbacks).  The normalizing pickler therefore
rewrites exactly these classes of unstable objects:

* **callables** (functions, bound methods, builtins) become
  deterministic ``module:qualname`` tokens, with primitive closure
  cell values appended so closure *state* still distinguishes keys;
* **sets and frozensets** are emitted in sorted order — their native
  iteration order depends on insertion history, which is execution
  history, not state;
* **physical memory** is reduced to its logical frame contents,
  dropping the copy-on-write bookkeeping (``_cow``) that later
  ``take()`` calls mutate in place;
* **processes** become ``pid`` tokens and the **kernel** a constant
  token: their live objects carry the machine's *current* state, while
  the captured state of each process is already in the kernel payload
  (``process.capture()``).

Everything else pickles normally, so any state change — registers,
cache tags, RNG streams, recipe progress, metrics instruments —
changes the digest.
"""

from __future__ import annotations

import hashlib
import io
import pickle
import types
from typing import Any

_PRIMITIVES = (type(None), bool, int, float, str, bytes)


def _callable_token(obj: Any) -> str:
    """A deterministic identity token for a callable, including the
    values of primitive closure cells (closure state is attack state:
    ``replay_n_times(3)`` and ``replay_n_times(5)`` must differ)."""
    module = getattr(obj, "__module__", "") or ""
    qualname = getattr(obj, "__qualname__", repr(type(obj)))
    cells = ""
    closure = getattr(obj, "__closure__", None)
    if closure:
        parts = []
        for cell in closure:
            try:
                value = cell.cell_contents
            except ValueError:  # pragma: no cover - empty cell
                parts.append("<empty>")
                continue
            if isinstance(value, _PRIMITIVES):
                parts.append(repr(value))
            else:
                parts.append(f"<{type(value).__name__}>")
        cells = ":" + ",".join(parts)
    return f"__fn__:{module}:{qualname}{cells}"


class _NormalizingPickler(pickle.Pickler):
    """Pickler whose output is a function of logical state only."""

    def reducer_override(self, obj):  # noqa: D102 - pickle protocol
        if isinstance(obj, (types.FunctionType, types.MethodType,
                            types.BuiltinFunctionType)):
            return (str, (_callable_token(obj),))
        if type(obj) is set or type(obj) is frozenset:
            try:
                ordered = sorted(obj)
            except TypeError:
                ordered = sorted(obj, key=lambda v: (repr(type(v)),
                                                     repr(v)))
            return (str, (f"__set__:{ordered!r}",))
        from repro.kernel.kernel import Kernel
        from repro.kernel.process import Process
        from repro.mem.physical import PhysicalMemory
        if isinstance(obj, Process):
            return (str, (f"__process__:{obj.pid}",))
        if isinstance(obj, Kernel):
            return (str, ("__kernel__",))
        if isinstance(obj, PhysicalMemory):
            frames = tuple(sorted(
                (frame_no, tuple(sorted(frame.items())))
                for frame_no, frame in obj._frames.items()))
            body = hashlib.sha256(repr(frames).encode()).hexdigest()
            return (str,
                    (f"__phys__:{obj.num_frames}:{obj.size}:{body}",))
        return NotImplemented


def canonical_dump(state: Any) -> bytes:
    """Pickle *state* through the normalizing pickler."""
    buffer = io.BytesIO()
    _NormalizingPickler(buffer, protocol=4).dump(state)
    return buffer.getvalue()


def state_digest(snapshot: Any) -> str:
    """SHA-256 hex digest of a snapshot's logical state."""
    return hashlib.sha256(canonical_dump(
        (snapshot.version, snapshot.machine_state,
         snapshot.kernel_state, snapshot.sgx_state,
         snapshot.module_state))).hexdigest()


__all__ = ["canonical_dump", "state_digest"]
