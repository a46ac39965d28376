"""Déjà Vu (§8): detecting attacks with a reference clock.

Déjà Vu [13] measures, with a TSX-protected clock thread, whether a
program region takes abnormally long to execute, flagging compromise.
We model it faithfully: a clock thread free-runs on the SMT sibling,
incrementing a counter in shared memory; the victim reads the counter
before and after its sensitive region and raises a detection flag when
the elapsed ticks exceed a budget.

The paper identifies two weaknesses, both reproducible here:

1. **Masking** — the time of a MicroScope replay is comparable to an
   ordinary page fault's, so a budget loose enough to tolerate benign
   demand paging admits a bounded number of replays.
2. (Discussed, not modelled as a default) the attacker can starve the
   clock thread itself; and the clock's own TSX protection is a replay
   mechanism (§7.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.module import MicroScopeConfig
from repro.core.recipes import ReplayAction, ReplayDecision
from repro.core.replayer import AttackEnvironment, Replayer
from repro.isa.program import Program, ProgramBuilder
from repro.victims.common import REPLAY_HANDLE


def build_clock_program(counter_va: int) -> Program:
    """The reference-clock thread: a tight increment/store loop."""
    b = ProgramBuilder("dejavu-clock")
    b.li("r1", counter_va)
    b.li("r2", 0)
    b.label("tick")
    b.addi("r2", "r2", 1)
    b.store("r1", "r2", 0)
    b.jmp("tick")
    return b.build()


def build_timed_victim(handle_va: int, clock_va: int,
                       result_va: int) -> Program:
    """A victim whose sensitive region is bracketed by clock reads."""
    b = ProgramBuilder("dejavu-victim")
    b.li("r1", handle_va)
    b.li("r2", clock_va)
    b.li("r3", result_va)
    b.load("r4", "r2", 0)          # clock before the region
    b.load("r5", "r1", 0, comment=REPLAY_HANDLE)
    b.fli("f0", 5.0)
    b.fli("f1", 2.0)
    b.fdiv("f2", "f0", "f1")       # the sensitive work
    b.fdiv("f3", "f0", "f1")
    b.load("r6", "r2", 0)          # clock after the region
    b.sub("r7", "r6", "r4")
    b.store("r3", "r7", 0)         # elapsed ticks
    b.halt()
    return b.build()


@dataclass
class DejaVuReport:
    replays: int
    elapsed_ticks: int
    budget_ticks: int

    @property
    def detected(self) -> bool:
        return self.elapsed_ticks > self.budget_ticks


def evaluate_dejavu(replays: int, budget_ticks: int = 12_000
                    ) -> DejaVuReport:
    """Run the MicroScope replay attack against the Déjà-Vu-timed
    victim; report whether the clock catches it.

    The default budget tolerates a few *legitimate* demand-paging
    faults (each costs thousands of cycles), which is exactly why the
    paper's masking argument works: a replay is indistinguishable from
    an ordinary fault, so small replay counts hide under the budget
    while large ones are detected.
    """
    rep = Replayer(AttackEnvironment.build(
        module_config=MicroScopeConfig(fault_handler_cost=3000)))
    victim_proc = rep.create_victim_process("dejavu-victim")
    clock_proc = rep.create_monitor_process("dejavu-clock")
    channel = rep.shared_channel(victim_proc, clock_proc)
    clock_va_victim = channel.va_for(victim_proc)
    clock_va_clock = channel.va_for(clock_proc)
    handle_va = victim_proc.alloc(4096, "dv-handle")
    result_va = victim_proc.alloc(4096, "dv-result")

    victim = build_timed_victim(handle_va, clock_va_victim, result_va)
    clock = build_clock_program(clock_va_clock)

    def attack_fn(event) -> ReplayDecision:
        if event.replay_no >= replays:
            return ReplayDecision(ReplayAction.RELEASE)
        return ReplayDecision(ReplayAction.REPLAY)

    recipe = rep.module.provide_replay_handle(
        victim_proc, handle_va, name="dejavu-eval",
        attack_function=attack_fn)
    rep.launch_victim(victim_proc, victim)
    rep.launch_monitor(clock_proc, clock, context_id=1)
    rep.arm(recipe)
    rep.run_until_victim_done(context_id=0, max_cycles=10_000_000)
    elapsed = victim_proc.read(result_va)
    return DejaVuReport(replays=replays, elapsed_ticks=elapsed,
                        budget_ticks=budget_ticks)
