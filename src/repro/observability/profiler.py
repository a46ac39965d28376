"""Host-time profiling hooks.

:func:`collect_machines` is a context manager that observes every
:class:`~repro.cpu.machine.Machine` constructed inside it.  The
benchmark harness uses this to emit a metrics JSON per experiment
without threading a machine handle through every helper.  Machines
built in *worker processes* (the parallel sweep harness) are not
visible to the parent's collector; their counters stay worker-local.
The collector is thread-local, like the active oracle in
:mod:`repro.oracle.runtime`: a block sees only the machines its own
thread builds.

``Machine.profile()`` (see :mod:`repro.cpu.machine`) returns a
:class:`RunProfile` capturing cycles and host seconds for one region,
from which cycles-per-host-second falls out directly.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List

#: ``_collector.machines`` is this thread's active machine list, if
#: any.  Machine.__init__ performs one thread-local read + None check
#: — nothing else — so the hook is effectively free when no collector
#: is installed.
_collector = threading.local()


def note_machine(machine: Any) -> None:
    """Called by ``Machine.__init__``; records *machine* when a
    collector is active on this thread."""
    machines = getattr(_collector, "machines", None)
    if machines is not None:
        machines.append(machine)


@contextmanager
def collect_machines() -> Iterator[List[Any]]:
    """Collect every Machine this thread constructs in this block
    (re-entrant blocks nest: inner collectors shadow outer ones)."""
    previous = getattr(_collector, "machines", None)
    machines: List[Any] = []
    _collector.machines = machines
    try:
        yield machines
    finally:
        _collector.machines = previous


class RunProfile:
    """Cycles + host time for one profiled region."""

    __slots__ = ("label", "start_cycle", "end_cycle", "host_seconds",
                 "_t0")

    def __init__(self, label: str, start_cycle: int):
        self.label = label
        self.start_cycle = start_cycle
        self.end_cycle = start_cycle
        self.host_seconds = 0.0
        self._t0 = time.perf_counter()

    def finish(self, end_cycle: int) -> None:
        self.end_cycle = end_cycle
        self.host_seconds = max(time.perf_counter() - self._t0, 1e-9)

    @property
    def cycles(self) -> int:
        return self.end_cycle - self.start_cycle

    @property
    def cycles_per_host_second(self) -> float:
        return self.cycles / self.host_seconds

    def as_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "cycles": self.cycles,
            "host_seconds": self.host_seconds,
            "cycles_per_host_second": self.cycles_per_host_second,
        }


__all__ = [
    "RunProfile",
    "collect_machines",
    "note_machine",
]
