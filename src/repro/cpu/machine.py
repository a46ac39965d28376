"""The simulated machine: memory system + cores + a global clock.

A :class:`Machine` wires one physical memory, one cache hierarchy, one
TLB hierarchy and page walker, and one SMT core together (the paper's
attack plays out on a single physical core; the Replayer runs as kernel
code, not on its own core).  The kernel from :mod:`repro.kernel`
attaches itself as the machine's trap handler.  Observers
(:mod:`repro.cpu.observer`) watch it all through :meth:`Machine.attach`.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Tuple

from repro.cpu.core import Core
from repro.cpu.observer import (CORE_STAGES, KERNEL_STAGES, MEMORY_STAGES,
                                bind_stages)
from repro.cpu.traps import TrapHandler
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.physical import PhysicalMemory
from repro.observability.profiler import RunProfile, note_machine
from repro.observability.registry import MetricsRegistry
from repro.oracle.runtime import note_machine as _oracle_note_machine
from repro.vm.pwc import PageWalkCache
from repro.vm.tlb import TLBHierarchy
from repro.vm.walker import PageWalker

if TYPE_CHECKING:
    from repro.config import MachineConfig


class Machine:
    """One simulated platform with a single SMT core."""

    def __init__(self, config: Optional[MachineConfig] = None):
        if config is None:
            from repro.config import MachineConfig
            config = MachineConfig()
        self.config = config
        self.phys = PhysicalMemory(self.config.num_frames)
        self.hierarchy = MemoryHierarchy(self.config.hierarchy)
        self.tlbs = TLBHierarchy(self.config.tlbs)
        self.pwc = PageWalkCache(self.config.pwc)
        self.walker = PageWalker(self.phys, self.hierarchy, self.pwc)
        self.core = Core(0, self.config.core, self.phys, self.hierarchy,
                         self.tlbs, self.walker)
        #: Attached observers, in attach order (change them only
        #: through attach/detach); the kernel stages' tuples live here.
        self.observers: Tuple[object, ...] = ()
        bind_stages(self, KERNEL_STAGES, ())
        #: The machine-wide metric index.  Groups are bound by
        #: reference; subsystems keep plain attribute increments.
        self.metrics = MetricsRegistry()
        self._register_metrics()
        #: Installed DefenseMechanism, or None.  Resolved from
        #: ``config.defense`` after the metrics registry exists so
        #: mechanisms can create their counters in ``attach``.
        self.defense = None
        if self.config.defense is not None and self.config.defense.scheme:
            from repro.evaluation.defenses.mechanisms import install_defense
            self.defense = install_defense(self, self.config.defense)
        #: Active EventTracer, or None (the zero-cost default).
        self.tracer = None
        note_machine(self)
        _oracle_note_machine(self)

    def _register_metrics(self):
        metrics = self.metrics
        for cache in self.hierarchy.levels:
            metrics.register_group(f"mem.{cache.name.lower()}",
                                   cache.stats)
        metrics.register_group("mem.hierarchy", self.hierarchy.stats)
        metrics.register_group("vm.tlb.l1d", self.tlbs.l1d.stats)
        metrics.register_group("vm.tlb.l1i", self.tlbs.l1i.stats)
        metrics.register_group("vm.tlb.l2", self.tlbs.l2.stats)
        metrics.register_group("vm.pwc", self.pwc.stats)
        metrics.register_group("vm.walker", self.walker.stats)
        self.walker.bind_latency_histogram(
            metrics.histogram("vm.walker.latency_cycles"))
        metrics.register_group("cpu.predictor", self.core.predictor.stats)
        for port in self.core.ports.ports:
            metrics.register_group(f"cpu.port.{port.name.lower()}",
                                   port.stats)
        for context in self.core.contexts:
            metrics.register_group(f"cpu.ctx{context.context_id}",
                                   context.stats)

    @property
    def cycle(self) -> int:
        return self.core.cycle

    @property
    def contexts(self):
        return self.core.contexts

    def set_trap_handler(self, handler: TrapHandler):
        self.core.trap_handler = handler

    # --- observers --------------------------------------------------------

    def attach(self, observer) -> None:
        """Call *observer* at every stage it defines (the protocol of
        :class:`repro.cpu.observer.Observer`), on whichever layer fires
        that stage, after every observer attached before it.  Attaching
        the same object twice raises ValueError."""
        if any(attached is observer for attached in self.observers):
            raise ValueError(f"{observer!r} is already attached")
        self.observers += (observer,)
        self._route()

    def detach(self, observer) -> None:
        """Undo :meth:`attach`; raises ValueError when *observer* is
        not attached."""
        remaining = tuple(attached for attached in self.observers
                          if attached is not observer)
        if len(remaining) == len(self.observers):
            raise ValueError(f"{observer!r} is not attached")
        self.observers = remaining
        self._route()

    def _route(self) -> None:
        observers = self.observers
        bind_stages(self.core, CORE_STAGES, observers)
        bind_stages(self, KERNEL_STAGES, observers)
        bind_stages(self.hierarchy, MEMORY_STAGES, observers)

    # --- observability ----------------------------------------------------

    def attach_tracer(self, tracer):
        """Attach an :class:`~repro.observability.tracer.EventTracer`,
        replacing any attached before.  It observes the core's pipeline
        events; the kernel and the MicroScope module pick it up per
        fault through ``machine.tracer``."""
        self.detach_tracer()
        self.attach(tracer)
        self.tracer = tracer

    def detach_tracer(self):
        """Return to the zero-cost no-tracing configuration."""
        if self.tracer is not None:
            self.detach(self.tracer)
            self.tracer = None

    @contextmanager
    def profile(self, label: str = "run") -> Iterator[RunProfile]:
        """Profile a region: ``with machine.profile("attack") as prof``
        yields a :class:`RunProfile`; on exit it holds cycles, host
        seconds and cycles/second for the region."""
        prof = RunProfile(label, self.cycle)
        try:
            yield prof
        finally:
            prof.finish(self.cycle)

    # --- snapshot support -------------------------------------------------

    def capture(self) -> tuple:
        """Clone the whole platform's mutable state (see
        :mod:`repro.snapshot` for the composed, versioned snapshot)."""
        payload = (self.phys.capture(), self.hierarchy.capture(),
                   self.tlbs.capture(), self.pwc.capture(),
                   self.walker.capture(), self.core.capture(),
                   self.metrics.capture())
        if self.defense is not None:
            # Appended only when a defense is installed, so default
            # platforms keep their historical payload shape.  The
            # scheme travels with the state so a restore can refuse a
            # different defense.
            payload = payload + ((self.defense.scheme,
                                  self.defense.capture()),)
        return payload

    def restore(self, state: tuple):
        # The defense slot must match, or a fenced snapshot would
        # silently restore into an unfenced (or differently defended)
        # machine.
        if self.defense is None:
            if len(state) != 7:
                raise ValueError(
                    "snapshot carries defense state but no defense "
                    "mechanism is installed")
        else:
            if len(state) != 8:
                raise ValueError(
                    "snapshot lacks defense state but a defense "
                    "mechanism is installed")
            scheme, defense_state = state[7]
            if scheme != self.defense.scheme:
                raise ValueError(
                    f"snapshot carries {scheme!r} defense state but "
                    f"the machine runs {self.defense.scheme!r}")
            self.defense.restore(defense_state)
        phys, hierarchy, tlbs, pwc, walker, core, metrics = state[:7]
        self.phys.restore(phys)
        self.hierarchy.restore(hierarchy)
        self.tlbs.restore(tlbs)
        self.pwc.restore(pwc)
        self.walker.restore(walker)
        self.core.restore(core)
        self.metrics.restore(metrics)

    def step(self, cycles: int = 1):
        """Advance the machine by *cycles* cycles."""
        for _ in range(cycles):
            self.core.step()

    def run(self, max_cycles: int = 1_000_000,
            until: Optional[Callable[["Machine"], bool]] = None) -> int:
        """Run until *until* returns True, all contexts finish, or the
        cycle budget is exhausted.  Returns cycles executed.

        Cycles in which nothing can act are jumped, and cycles in which
        only fetch can act skip the back end, both bit-exactly with
        :meth:`step`.  *until* is not called on a jumped cycle, so it
        must test state, not the clock (stop on a cycle with
        :meth:`step` or :meth:`run_until_cycle`), and may change the
        machine only by raising an interrupt or a transaction abort.
        The contract: docs/ARCHITECTURE.md, "Scheduler and
        fast-forward".
        """
        core = self.core
        start = core.cycle
        limit = start + max_cycles
        check = None if until is None else partial(until, self)
        bound = None  # of the front-end-only run in progress
        while core.cycle < limit:
            if until is not None and until(self):
                break
            if bound is None:
                target, bound = core.next_work()
                if target is None:
                    break
                if target > core.cycle:
                    core.fast_forward(limit, target)
                    if core.cycle >= limit:
                        break
                if bound is None:
                    core.step()
                    continue
            bound = core.front_end_cycle(bound, limit, check)
            if bound is False:
                break  # until returned True inside a fill
        return core.cycle - start

    def run_until_cycle(self, cycle: int,
                        until: Optional[Callable[["Machine"], bool]]
                        = None) -> int:
        """Run until the global clock reaches *cycle* (or *until* /
        completion stops the run earlier).  Fast-forward jumps are
        clamped to *cycle*, so the clock stops on it exactly.  Returns
        cycles executed."""
        if cycle <= self.cycle:
            return 0
        return self.run(max_cycles=cycle - self.cycle, until=until)

    def run_context_to_completion(self, context_id: int,
                                  max_cycles: int = 1_000_000) -> int:
        """Run until context *context_id* finishes."""
        context = self.contexts[context_id]
        return self.run(max_cycles, until=lambda _m: context.finished())
