"""The simulated operating system kernel.

The kernel owns physical frames, creates processes, performs demand
paging, and implements the trap path of Figure 9:

1. the MMU raises a page fault and the core traps here;
2. the fault handler classifies the fault;
3. *trampoline*: the machine's ``on_fault`` observers
   (:mod:`repro.cpu.observer`; the MicroScope module is one) get first
   claim on the fault, in attach order;
4. unclaimed faults fall back to regular demand paging (or kill the
   process on a genuine segfault).

Kernel work costs simulated time: the faulting context stays blocked
for the returned cost while other SMT contexts — e.g. the attack's
Monitor — keep running.  The paper leans on exactly this ("most
Monitor samples are taken while the page fault handling code is
running", §6.1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.cpu.context import HardwareContext
from repro.cpu.machine import Machine
from repro.cpu.traps import TrapAction, TrapHandler
from repro.kernel.frames import FrameAllocator
from repro.kernel.process import Process
from repro.observability.stats import KernelStats
from repro.observability.tracer import KERNEL_TID
from repro.vm import address as vaddr
from repro.vm.faults import PageFault

__all__ = ["Kernel", "KernelConfig", "KernelStats"]


@dataclass
class KernelConfig:
    """Timing and policy knobs of the kernel."""

    #: Cycles charged for a minor page fault (handler entry, PTE fix-up,
    #: return to user).  Real kernels take on the order of microseconds;
    #: at ~3 GHz that is thousands of cycles.
    minor_fault_cost: int = 3000
    #: Extra cost when a fresh frame must be allocated and zeroed.
    major_fault_extra: int = 4000
    #: Cycles charged for a timer/IPI interrupt.
    interrupt_cost: int = 1200
    #: Uniform jitter added to handler costs (0 disables). Seeded.
    cost_jitter: int = 0
    jitter_seed: int = 1234


class Kernel(TrapHandler):
    """Supervisor software: process management + trap handling."""

    def __init__(self, machine: Machine,
                 config: Optional[KernelConfig] = None):
        self.machine = machine
        self.config = config or KernelConfig()
        self.frames = FrameAllocator(machine.phys.num_frames)
        self.processes: List[Process] = []
        self.stats = KernelStats()
        self._next_pid = 1
        self._jitter = random.Random(self.config.jitter_seed)
        machine.set_trap_handler(self)
        # Rebuilding a kernel on the same machine (tests do this)
        # rebinds the group rather than erroring.
        machine.metrics.register_group("kernel", self.stats, replace=True)

    # --- process management --------------------------------------------------

    def create_process(self, name: str = "") -> Process:
        process = Process(self._next_pid, pcid=self._next_pid,
                          phys=self.machine.phys, frames=self.frames,
                          name=name)
        self._next_pid += 1
        self.processes.append(process)
        return process

    def launch(self, process: Process, program, context_id: int = 0,
               start_index: int = 0):
        """Schedule *program* of *process* onto a hardware context."""
        context = self.machine.contexts[context_id]
        context.load_program(program, process, start_index)
        return context

    # --- TLB maintenance (the OS's side of coherence, §2.1) -----------------

    def invlpg(self, process: Process, va: int):
        """Invalidate one translation in every TLB level and in the
        paging-structure (page-walk) cache, as x86 INVLPG does."""
        self.machine.tlbs.invalidate(process.pcid, vaddr.vpn(va))
        self.machine.pwc.invalidate_va(process.pcid, va)

    def flush_tlbs(self, process: Optional[Process] = None):
        if process is None:
            self.machine.tlbs.flush_all()
        else:
            self.machine.tlbs.flush_pcid(process.pcid)

    def set_present(self, process: Process, va: int, present: bool,
                    flush: bool = True):
        """Toggle the present bit for the page of *va* and keep the TLB
        coherent — the primitive the controlled-channel attack and
        MicroScope both build on."""
        process.page_tables.set_present(vaddr.page_base(va), present)
        if flush:
            self.invlpg(process, va)

    # --- trap handling ---------------------------------------------------------

    def _cost(self, base: int) -> int:
        if self.config.cost_jitter:
            return base + self._jitter.randint(0, self.config.cost_jitter)
        return base

    def handle_page_fault(self, context: HardwareContext,
                          fault: PageFault) -> TrapAction:
        self.stats.page_faults += 1
        claimed = False
        action = None
        for observer in self.machine._on_fault:
            action = observer(self.machine.core, context, fault)
            if action is not None:
                self.stats.hook_claims += 1
                claimed = True
                break
        if action is None:
            action = self._default_fault_handling(context, fault)
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.complete(
                "page_fault", self.machine.cycle, action.cost,
                cat="kernel", tid=KERNEL_TID,
                va=fault.va, level=fault.level, ctx=context.context_id,
                claimed=claimed)
        return action

    def _default_fault_handling(self, context: HardwareContext,
                                fault: PageFault) -> TrapAction:
        process: Optional[Process] = context.process
        if process is None:
            raise RuntimeError("page fault with no process bound")
        vma = process.vma_containing(fault.va)
        if vma is None:
            self.stats.segfaults += 1
            process.terminated = True
            return TrapAction(cost=self._cost(
                self.config.minor_fault_cost), halt=True)
        already_backed = vaddr.vpn(fault.va) in process.page_frames
        process.ensure_mapped(fault.va)
        self.invlpg(process, fault.va)
        cost = self.config.minor_fault_cost
        if already_backed:
            self.stats.minor_faults += 1
        else:
            self.stats.demand_pages += 1
            cost += self.config.major_fault_extra
        return TrapAction(cost=self._cost(cost))

    def handle_interrupt(self, context: HardwareContext,
                         reason: str) -> TrapAction:
        self.stats.interrupts += 1
        action = None
        for observer in self.machine._on_interrupt:
            action = observer(self.machine.core, context, reason)
            if action is not None:
                break
        if action is None:
            action = TrapAction(cost=self._cost(self.config.interrupt_cost))
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.complete(
                "interrupt", self.machine.cycle, action.cost,
                cat="kernel", tid=KERNEL_TID,
                reason=reason, ctx=context.context_id)
        return action

    # --- snapshot support -------------------------------------------------

    def capture(self) -> tuple:
        """Clone kernel state.  Process *objects* are shared by
        reference (the rest of the system holds pointers to them);
        their mutable address-space state is cloned per process.
        Observers (the trampoline included) are attached to the
        machine: identity wiring that stays untouched."""
        return (
            self.stats.capture(),
            self._next_pid,
            self._jitter.getstate(),
            self.frames.capture(),
            [(process, process.capture()) for process in self.processes],
        )

    def restore(self, state: tuple):
        stats, next_pid, jitter, frames, processes = state
        self.stats.restore(stats)
        self._next_pid = next_pid
        self._jitter.setstate(jitter)
        self.frames.restore(frames)
        self.processes = [process for process, _ in processes]
        for process, process_state in processes:
            process.restore(process_state)
