"""Execution ports and port arbitration.

Ports are the *shared* structural resource of an SMT core: both
hardware contexts dispatch into the same set, so a victim's divides
delay a monitor's divides.  The divider (op class ``div``) is
non-pipelined — it occupies its port for the instruction's full
latency — which makes the contention signal of Section 4.3 large and
reliable once MicroScope removes the alignment noise.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.cpu.config import PortConfig
from repro.observability.stats import PortStats

__all__ = ["Port", "PortSet", "PortStats"]


class Port:
    """One execution port."""

    __slots__ = ("name", "classes", "_non_pipelined", "busy_until",
                 "_issued_this_cycle", "stats")

    def __init__(self, config: PortConfig, non_pipelined: FrozenSet[str]):
        self.name = config.name
        self.classes = config.classes
        self._non_pipelined = non_pipelined
        #: Cycle until which a non-pipelined op holds the port.
        self.busy_until = 0
        #: Whether an op was issued here this cycle (1 issue/port/cycle).
        self._issued_this_cycle = False
        self.stats = PortStats()

    def issue(self, now: int, op_cls: str, latency: int):
        """Commit an issue; non-pipelined classes hold the port."""
        self._issued_this_cycle = True
        self.stats.issued += 1
        if op_cls in self._non_pipelined:
            self.busy_until = now + latency

    def capture(self) -> tuple:
        return (self.busy_until, self._issued_this_cycle,
                self.stats.capture())

    def restore(self, state: tuple):
        (self.busy_until, self._issued_this_cycle, stats) = state
        self.stats.restore(stats)


class PortSet:
    """All ports of one core, with simple oldest-first arbitration."""

    def __init__(self, configs: Sequence[PortConfig],
                 non_pipelined: FrozenSet[str]):
        #: Op classes that occupy their port for the full latency —
        #: the observable contention resource (oracle hook point).
        self.non_pipelined = non_pipelined
        self.ports: List[Port] = [Port(c, non_pipelined) for c in configs]
        self._by_class: Dict[str, List[Port]] = {}
        for port in self.ports:
            for cls in port.classes:
                self._by_class.setdefault(cls, []).append(port)
        #: The ports that issued this cycle, so :meth:`new_cycle` resets
        #: only those (an idle cycle costs nothing per port).
        self._issued: List[Port] = []

    def new_cycle(self):
        if self._issued:
            for port in self._issued:
                port._issued_this_cycle = False
            self._issued = []

    def find(self, now: int, op_cls: str) -> Optional[Port]:
        """The first port that can take *op_cls* at cycle *now*, or
        ``None``.  Every candidate skipped because a non-pipelined op
        still holds it counts one ``contended`` cycle, whether or not a
        later port is free.

        The core reproduces these counts without calling ``find``
        where the answer is known: after a failed search, dispatch
        counts the later entries of *op_cls* in that cycle and adds
        that many to the same ports once, after its scan, and
        ``Core.fast_forward`` adds one per skipped cycle (as
        ``Core.front_end_cycle`` does for its one cycle) for each ready
        entry whose class has every port held.  Deferring the dispatch
        credit is exact because nothing reads ``contended`` during a
        cycle: only ``contention_report`` and the metrics registry
        read it, between runs."""
        for port in self._by_class.get(op_cls, ()):
            if port._issued_this_cycle:
                continue
            if now < port.busy_until:
                port.stats.contended += 1
                continue
            return port
        return None

    def issue(self, port: Port, now: int, op_cls: str, latency: int):
        """Commit an issue on *port*, found free by :meth:`find` this
        cycle."""
        port.issue(now, op_cls, latency)
        self._issued.append(port)

    def try_issue(self, now: int, op_cls: str, latency: int
                  ) -> Optional[Port]:
        """Issue an op of *op_cls* on the first available port, or
        return ``None`` when every candidate port is busy."""
        port = self.find(now, op_cls)
        if port is not None:
            self.issue(port, now, op_cls, latency)
        return port

    def is_non_pipelined(self, op_cls: str) -> bool:
        """True when *op_cls* holds its port for the full latency (a
        sibling context observes the occupancy as contention)."""
        return op_cls in self.non_pipelined

    def port_named(self, name: str) -> Port:
        for port in self.ports:
            if port.name == name:
                return port
        raise KeyError(f"no port named {name!r}")

    def contention_report(self) -> Dict[str, Tuple[int, int]]:
        """``{port: (issued, contended_cycles)}`` for diagnostics."""
        return {p.name: (p.stats.issued, p.stats.contended)
                for p in self.ports}

    # --- snapshot support -------------------------------------------------

    def capture(self) -> tuple:
        return tuple(port.capture() for port in self.ports)

    def restore(self, state: tuple):
        if len(state) != len(self.ports):
            raise ValueError("snapshot port count mismatch")
        for port, port_state in zip(self.ports, state):
            port.restore(port_state)
        self._issued = [port for port in self.ports
                        if port._issued_this_cycle]
