"""Fence-on-pipeline-flush (§8, "Fences on Pipeline Flushes").

"The obvious defense ... is for the hardware or the OS to insert a
fence after each pipeline flush."  :class:`FenceOnFlushMechanism`
(scheme ``"fences"``) implements this as a squash observer: after a
page fault, a misprediction or a memory-order violation the next
fetched instruction is serialising, so replayed code cannot run ahead
of the faulting handle.

The paper's corner case is also measurable here: the *first* execution
of the window (before any flush has happened) still leaks — the
defense bounds the adversary to one noisy sample instead of zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.module import MicroScopeConfig
from repro.core.recipes import ReplayAction, ReplayDecision, WalkLocation, WalkTuning
from repro.core.replayer import AttackEnvironment, Replayer
from repro.config import DefenseHookConfig, MachineConfig
from repro.cpu.context import HardwareContext
from repro.cpu.observer import UnitIssueCounter
from repro.cpu.rob import ROBEntry
from repro.evaluation.defenses.mechanisms import (
    DefenseMechanism,
    register_mechanism,
)
from repro.victims.control_flow import setup_control_flow_victim

#: The squashes after which the next fetch is serialised; interrupt
#: and transaction-abort squashes are not fenced.
FENCED_SQUASHES = frozenset({"page-fault", "mispredict", "memory-order"})


@register_mechanism("fences")
class FenceOnFlushMechanism(DefenseMechanism):
    """Serialise the first instruction fetched after a flush."""

    scheme = "fences"

    def on_squash(self, core, context: HardwareContext, squashed,
                  reason: str, trigger: Optional[ROBEntry]) -> None:
        """Serialise the next fetch after a fenced squash."""
        if reason in FENCED_SQUASHES:
            context.serialize_next_fetch = True

    # Stateless: the flag lives in the context and travels with its
    # snapshot, so the base capture()/restore() suffice.


def fences_machine() -> MachineConfig:
    """A platform config with the fence-on-flush mechanism installed."""
    return MachineConfig(defense=DefenseHookConfig(scheme="fences"))


@dataclass
class FenceDefenseReport:
    """Transmit executions visible to the attacker, with and without
    the defense, for the same number of replays."""

    replays: int
    transmit_issues_undefended: int
    transmit_issues_defended: int

    @property
    def leakage_blocked(self) -> bool:
        """The defense caps the leak at the single pre-flush window."""
        return self.transmit_issues_defended <= 2  # one window's divs


def evaluate_fence_on_flush(replays: int = 10,
                            secret: int = 1) -> FenceDefenseReport:
    """Replay the Fig. 6 victim *replays* times with and without the
    fence-on-flush defense; count the victim's speculatively executed
    transmit (divide) instructions each way."""
    return FenceDefenseReport(
        replays=replays,
        transmit_issues_undefended=count_transmit_issues(replays, secret),
        transmit_issues_defended=count_transmit_issues(
            replays, secret, machine_config=fences_machine()))


def count_transmit_issues(replays: int, secret: int,
                          machine_config: MachineConfig = None) -> int:
    """Replay the Fig. 6 victim *replays* times on *machine_config*
    (stock platform when None) and count its speculatively executed
    transmit (divide) instructions — the measurement every
    "suppress re-execution" defense is judged by."""
    rep = Replayer(AttackEnvironment.build(
        machine_config=machine_config or MachineConfig(),
        module_config=MicroScopeConfig(fault_handler_cost=2000)))
    victim_proc = rep.create_victim_process("victim")
    victim = setup_control_flow_victim(victim_proc, secret)
    issues = UnitIssueCounter()
    rep.machine.attach(issues)

    def attack_fn(event) -> ReplayDecision:
        if event.replay_no >= replays:
            return ReplayDecision(ReplayAction.RELEASE)
        return ReplayDecision(ReplayAction.REPLAY)

    recipe = rep.module.provide_replay_handle(
        victim_proc, victim.handle_va + 0x20, name="fence-eval",
        attack_function=attack_fn,
        walk_tuning=WalkTuning(upper=WalkLocation.PWC,
                               leaf=WalkLocation.DRAM))
    rep.launch_victim(victim_proc, victim.program)
    rep.arm(recipe)
    rep.run_until_victim_done(context_id=0, max_cycles=5_000_000)
    # Subtract the architectural (retired) executions after release.
    architectural = 2 if secret == 1 else 0
    return max(0, issues.counts["div"] - architectural)
