"""Interrupts as replay handles (§7.1's closing generalisation).

Any event that squashes speculative state can replay code.  Timer
interrupts are taken at retirement: everything in flight — including
instructions that already *executed* and leaked — is squashed and
re-fetched.  An attacker with interrupt control (the SGX-Step
machinery) can therefore replay a window unboundedly by firing the
next interrupt before the sensitive instruction retires: the
"zero-stepping" corner of interrupt-driven attacks, recast as a replay
engine.

Unlike page-fault handles, the window anchor is temporal (interrupt
arrival) rather than spatial (a chosen address), so this variant needs
no page-table manipulation at all — pure scheduling power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import MachineConfig
from repro.core.replayer import AttackEnvironment, Replayer
from repro.cpu.observer import UnitIssueCounter
from repro.isa.instructions import Opcode
from repro.victims.control_flow import setup_control_flow_victim


@dataclass
class InterruptReplayResult:
    secret: int
    replays_requested: int
    transmit_executions: int
    interrupts_delivered: int
    victim_finished: bool
    #: Per-unit execution counts (both branch sides), so the attacker
    #: can *infer* the secret instead of merely detecting the leak.
    mul_executions: int = 0
    div_executions: int = 0

    @property
    def leaked(self) -> bool:
        """More transmit executions than the architectural count means
        squashed (replayed) executions were observed."""
        return self.transmit_executions > 2

    @property
    def guessed(self) -> Optional[int]:
        """The attacker's call: the amplified unit is the taken side."""
        if self.div_executions == self.mul_executions:
            return None
        return 1 if self.div_executions > self.mul_executions else 0

    @property
    def correct(self) -> bool:
        return self.guessed == self.secret


@dataclass
class InterruptReplayAttack:
    """Replay the Fig. 6 victim's transmit window with timer
    interrupts instead of page faults."""

    replays: int = 8
    #: Machine-level defense knobs (``None`` = stock platform).
    machine: Optional[MachineConfig] = None
    #: Cap on squash-and-refetch windows the platform grants.
    replay_budget: Optional[int] = None

    def run(self, secret: int = 1) -> InterruptReplayResult:
        rep = Replayer(AttackEnvironment.build(
            machine_config=self.machine))
        victim_proc = rep.create_victim_process("irq-victim")
        victim = setup_control_flow_victim(victim_proc, secret)
        ctx = rep.machine.contexts[0]

        observer = UnitIssueCounter()
        rep.machine.attach(observer)
        counts = observer.counts
        rep.launch_victim(victim_proc, victim.program)

        delivered = 0
        limit = self.replays if self.replay_budget is None \
            else min(self.replays, self.replay_budget)
        budget = 3_000_000
        while budget > 0 and not ctx.finished():
            rep.machine.step(1)
            budget -= 1
            if delivered >= limit or ctx.pending_interrupt:
                continue
            # Fire while a transmit instruction is in flight and has
            # already executed (leaked) but not retired: the squash
            # forces it to re-execute — a replay.
            if any(e.instr.op in (Opcode.FDIV, Opcode.MUL)
                   and e.issue_cycle is not None
                   for e in ctx.rob.entries):
                ctx.pending_interrupt = "replay-irq"
                delivered += 1
        transmit = counts["div"] if secret == 1 else counts["mul"]
        return InterruptReplayResult(
            secret=secret, replays_requested=self.replays,
            transmit_executions=transmit,
            interrupts_delivered=delivered,
            victim_finished=ctx.finished(),
            mul_executions=counts["mul"],
            div_executions=counts["div"])
