"""T-SGX (§8, "Page Fault Protection Schemes").

T-SGX [50] wraps enclave execution in TSX transactions: a page fault
inside a transaction aborts it *without notifying the OS*, and a
user-level fallback handler decides what to do.  Because the handler
cannot distinguish page-fault aborts from interrupt aborts, T-SGX
terminates the program only after a threshold of ``N = 10`` failed
transactions.

The paper's observation, reproduced here: "This design decision still
provides N - 1 replays to MicroScope.  Such number can be sufficient
in many attacks."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.replayer import AttackEnvironment, Replayer
from repro.cpu.observer import UnitIssueCounter
from repro.isa.instructions import Opcode
from repro.isa.program import Program, ProgramBuilder
from repro.kernel.process import Process
from repro.victims.control_flow import setup_control_flow_victim

#: T-SGX's failed-transaction threshold.
TSGX_THRESHOLD = 10


def wrap_with_tsgx(program: Program, process: Process,
                   threshold: int = TSGX_THRESHOLD) -> Program:
    """Wrap *program* in a T-SGX style transaction.

    The body re-executes from TBEGIN on every abort; the fallback
    counts aborts in memory and terminates the program once the
    threshold is reached.  HALTs in the body become commits.
    """
    counter_va = process.alloc(4096, "tsgx-counter")
    b = ProgramBuilder(f"tsgx({program.name})")
    b.label("tsgx_retry")
    b.tbegin("tsgx_fallback")
    body_start = len(b)
    for instr in program.instructions:
        if instr.op is Opcode.HALT:
            b.jmp("tsgx_commit")
        else:
            b.emit(instr)
    # Re-anchor the original labels onto the shifted body.
    for label, index in program.labels.items():
        b.bind_label(label, body_start + index)
    b.label("tsgx_commit")
    b.tend()
    b.halt()
    b.label("tsgx_fallback")
    b.li("r14", counter_va)
    b.load("r15", "r14", 0)
    b.addi("r15", "r15", 1)
    b.store("r14", "r15", 0)
    b.li("r14", threshold)
    b.blt("r15", "r14", "tsgx_retry")
    b.halt("tsgx-terminate")
    return b.build()


@dataclass
class TSGXReport:
    threshold: int
    aborts: int
    #: Speculative windows the attacker observed before termination.
    replay_windows_observed: int
    victim_terminated: bool
    #: The OS never saw a single page fault (the T-SGX guarantee).
    os_faults_seen: int

    @property
    def matches_paper(self) -> bool:
        """N-1 replays despite the defense."""
        return self.replay_windows_observed >= self.threshold - 1


def evaluate_tsgx(secret: int = 1,
                  threshold: int = TSGX_THRESHOLD) -> TSGXReport:
    """Attack a T-SGX-protected victim with the page-fault handle and
    count what the attacker still gets."""
    rep = Replayer(AttackEnvironment.build())
    victim_proc = rep.create_victim_process("tsgx-victim")
    victim = setup_control_flow_victim(victim_proc, secret)
    wrapped = wrap_with_tsgx(victim.program, victim_proc, threshold)
    issues = UnitIssueCounter()
    rep.machine.attach(issues)
    # The attacker clears the present bit once; inside a transaction
    # every fault becomes an abort, so the MicroScope module is never
    # invoked again — and neither is the kernel.  To keep the replay
    # windows long, the attacker polls from another core, re-flushing
    # the handle's translation path (it cannot rely on the fault
    # trampoline, which TSX suppresses).
    rep.module.initiate_page_fault(victim_proc, victim.handle_va + 0x20)
    rep.launch_victim(victim_proc, wrapped)
    ctx0 = rep.machine.contexts[0]
    budget = 5_000_000
    while budget > 0 and not ctx0.finished():
        rep.machine.step(200)
        budget -= 200
        rep.module.initiate_page_fault(victim_proc,
                                       victim.handle_va + 0x20)
    ctx = rep.machine.contexts[0]
    terminated = victim_proc.read(
        victim_proc.vma_named("tsgx-counter").start) >= threshold
    return TSGXReport(
        threshold=threshold,
        aborts=ctx.stats.txn_aborts,
        replay_windows_observed=issues.counts["div"] // 2
        if secret == 1 else issues.counts["div"],
        victim_terminated=terminated,
        os_faults_seen=rep.kernel.stats.page_faults)
