"""Controlled-channel attack baseline (Xu et al. [60]).

The OS revokes page presence and logs the resulting fault sequence —
a *noiseless* channel, but spatially limited to 4 KiB pages (Table 1's
"coarse grain / no noise" row).  We demonstrate both properties:

* a secret that selects between two *pages* is recovered perfectly;
* a secret that selects between two *cache lines of the same page* is
  invisible — the limitation MicroScope lifts.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, List, Optional

from repro.config import MachineConfig
from repro.core.replayer import AttackEnvironment, Replayer
from repro.cpu.traps import TrapAction
from repro.isa.program import Program, ProgramBuilder
from repro.kernel.process import Process
from repro.oracle.runtime import note_secret_write
from repro.vm import address as vaddr


def build_page_secret_victim(handle_va: int, secret_va: int,
                             pageB_va: int, pageC_va: int,
                             same_page: bool,
                             oblivious: bool = False) -> Program:
    """Branch on a secret; the taken path touches page C (or, in the
    ``same_page`` variant, merely a different *line* of page B).

    With ``oblivious=True`` the program is the PF-oblivious rewrite
    (Shinde et al. [51], §8): both paths touch page B then page C in
    the same order, so the fault sequence carries no signal.
    """
    b = ProgramBuilder("cc-victim-oblivious" if oblivious
                       else "cc-victim")
    b.li("r1", handle_va)
    b.li("r2", secret_va)
    b.li("r3", pageB_va)
    b.li("r4", pageB_va + 512 if same_page else pageC_va)
    b.load("r5", "r1", 0)
    b.load("r6", "r2", 0)
    b.li("r7", 0)
    b.bne("r6", "r7", "path_c")
    b.load("r8", "r3", 0)
    if oblivious and not same_page:
        b.load("r9", "r4", 0)   # redundant access: page C
    b.jmp("done")
    b.label("path_c")
    if oblivious and not same_page:
        b.load("r9", "r3", 0)   # redundant access first: page B
    b.load("r8", "r4", 0)
    b.label("done")
    b.halt()
    return b.build()


@dataclass
class ControlledChannelResult:
    secret: int
    fault_vpns: List[int]
    guessed: Optional[int]
    same_page_variant: bool

    @property
    def correct(self) -> bool:
        return self.guessed == self.secret


@dataclass
class ControlledChannelAttack:
    """Log the victim's page-fault sequence and infer the secret."""

    #: Machine-level defense knobs (``None`` = stock platform).
    machine: Optional[MachineConfig] = None
    #: Attack the PF-oblivious rewrite of the victim (§8, [51]): the
    #: fault sequence becomes input-invariant, which is exactly what
    #: this page-granular channel cannot see through.
    oblivious: bool = False
    #: Optional victim transform applied before launch (e.g.
    #: ``repro.evaluation.defenses.tsgx.wrap_with_tsgx``): a callable
    #: ``(program, process) -> program``.
    victim_wrapper: Optional[
        Callable[[Program, Process], Program]] = None

    def run(self, secret: int,
            same_page: bool = False) -> ControlledChannelResult:
        rep = Replayer(AttackEnvironment.build(
            machine_config=self.machine))
        victim_proc = rep.create_victim_process("cc-victim")
        handle_va = victim_proc.alloc(4096, "cc-handle")
        secret_va = victim_proc.alloc(4096, "cc-secret")
        pageB_va = victim_proc.alloc(4096, "cc-pageB")
        pageC_va = victim_proc.alloc(4096, "cc-pageC")
        victim_proc.write(secret_va, secret)
        note_secret_write(victim_proc, secret_va)
        program = build_page_secret_victim(
            handle_va, secret_va, pageB_va, pageC_va, same_page,
            oblivious=self.oblivious)
        if self.victim_wrapper is not None:
            program = self.victim_wrapper(program, victim_proc)

        fault_vpns: List[int] = []

        def log_fault(core, context, fault):
            if context.process is victim_proc:
                fault_vpns.append(fault.vpn)
                # Service the fault like a regular demand pager so the
                # victim proceeds (one observation per page).
                rep.kernel.set_present(victim_proc, fault.va, True)
                return TrapAction(cost=3000)
            return None

        rep.machine.attach(SimpleNamespace(on_fault=log_fault))
        # Revoke presence of the two observable pages.
        rep.kernel.set_present(victim_proc, pageB_va, False)
        rep.kernel.set_present(victim_proc, pageC_va, False)
        rep.machine.hierarchy.flush_all()
        rep.machine.pwc.flush_all()
        rep.launch_victim(victim_proc, program)
        rep.run_until_victim_done(context_id=0, max_cycles=1_000_000)

        vpnB = vaddr.vpn(pageB_va)
        vpnC = vaddr.vpn(pageC_va)
        guessed: Optional[int] = None
        if vpnC in fault_vpns:
            guessed = 1
        elif vpnB in fault_vpns:
            # Page granularity: in the same-page variant both secrets
            # fault on page B, so this observation carries no signal.
            guessed = None if same_page else 0
        return ControlledChannelResult(secret=secret,
                                       fault_vpns=fault_vpns,
                                       guessed=guessed,
                                       same_page_variant=same_page)
