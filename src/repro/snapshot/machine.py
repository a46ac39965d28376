"""Versioned, bit-exact snapshots of the whole simulated platform.

A :class:`MachineSnapshot` composes the ``capture()`` / ``restore()``
methods that every stateful subsystem exposes:

* ``repro.cpu`` — cycle, SMT contexts (registers, ROB, rename map,
  ready queue, in-flight loads, TSX state), ports, branch predictor,
  the event heap and both core RNG streams;
* ``repro.mem`` — cache tag/dirty/replacement state per level, DRAM
  counters, and physical memory (shared copy-on-write per frame, so
  holding a snapshot costs only the frames that change afterwards);
* ``repro.vm`` — TLB hierarchy, page-walk cache and walker counters
  (page-table contents travel with physical memory);
* ``repro.kernel`` / ``repro.sgx`` — frame allocator, per-process
  address-space bookkeeping, kernel RNG, enclave state;
* ``repro.core`` — MicroScope module stats, armed pages and per-recipe
  attack progress.

Identity wiring — attached observers, trap handlers, tracers, the
object graph between kernel/module/processes — is deliberately *not*
part of a snapshot: it never changes during execution, and restoring
into the same environment reuses it.  A snapshot may be restored any
number of times; every restore clones from the snapshot again.
"""

from __future__ import annotations

from typing import Optional

#: Bump when the layout of any subsystem's capture() payload changes.
#: v2: machine payloads gained the metrics-registry instrument state
#: (walker latency histogram etc.) as a trailing element.
#: v3: a defended machine's trailing defense element is
#: ``(scheme, state)``, so a restore can reject a different defense.
SNAPSHOT_VERSION = 3


class SnapshotError(Exception):
    """Raised on version or topology mismatch at restore time."""


class MachineSnapshot:
    """Bit-exact state of a machine (optionally with its OS stack).

    ``take``/``restore`` accept either a bare
    :class:`~repro.cpu.machine.Machine` or any environment object with
    a ``machine`` attribute and optional ``kernel`` / ``sgx`` /
    ``module`` attributes (e.g.
    :class:`~repro.core.replayer.AttackEnvironment`).
    """

    __slots__ = ("version", "machine_state", "kernel_state", "sgx_state",
                 "module_state")

    def __init__(self, version: int, machine_state: tuple,
                 kernel_state: Optional[tuple],
                 sgx_state: Optional[tuple],
                 module_state: Optional[tuple]):
        self.version = version
        self.machine_state = machine_state
        self.kernel_state = kernel_state
        self.sgx_state = sgx_state
        self.module_state = module_state

    @staticmethod
    def _parts(env):
        machine = getattr(env, "machine", env)
        return (machine, getattr(env, "kernel", None),
                getattr(env, "sgx", None), getattr(env, "module", None))

    @classmethod
    def take(cls, env) -> "MachineSnapshot":
        """Capture *env* (an ``AttackEnvironment`` or bare ``Machine``)."""
        machine, kernel, sgx, module = cls._parts(env)
        return cls(
            SNAPSHOT_VERSION,
            machine.capture(),
            kernel.capture() if kernel is not None else None,
            sgx.capture() if sgx is not None else None,
            module.capture() if module is not None else None,
        )

    def restore(self, env):
        """Restore *env* in place to the captured state."""
        if self.version != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"snapshot version {self.version} != supported "
                f"{SNAPSHOT_VERSION}")
        machine, kernel, sgx, module = self._parts(env)
        for name, part, state in (("kernel", kernel, self.kernel_state),
                                  ("sgx", sgx, self.sgx_state),
                                  ("module", module, self.module_state)):
            if state is not None and part is None:
                raise SnapshotError(
                    f"snapshot carries {name} state but the target "
                    f"environment has no {name}")
        machine.restore(self.machine_state)
        if kernel is not None and self.kernel_state is not None:
            kernel.restore(self.kernel_state)
        if sgx is not None and self.sgx_state is not None:
            sgx.restore(self.sgx_state)
        if module is not None and self.module_state is not None:
            module.restore(self.module_state)
