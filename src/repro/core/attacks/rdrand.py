"""The §7.2 integrity attack: biasing RDRAND via selective replay.

Strategy: the replay handle faults; the victim's RDRAND executes
speculatively in the walk shadow and its parity leaks through the
execution units (divider vs multiplier).  The OS races the hardware
page walker — "set/clear the present bit before the walker reaches
it" — releasing the walk exactly when the observed parity is the
desired one, so the *same dynamic RDRAND instance* the attacker liked
retires.  Undesired draws keep the present bit clear, get squashed,
and are re-drawn.

Intel's actual RDRAND carries an (incidental) fence.  With
``rdrand_fenced=True`` the transmit code cannot execute before the
handle resolves, the parity never leaks in time, and the attacker is
reduced to blind releases — the bias disappears.  "The lesson is that
there should be such a fence, for security reasons."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import List, Optional

from repro.core.module import MicroScopeConfig
from repro.core.recipes import (
    ReplayAction,
    ReplayDecision,
    WalkLocation,
    WalkTuning,
)
from repro.core.replayer import AttackEnvironment, Replayer
from repro.cpu.config import CoreConfig
from repro.config import MachineConfig
from repro.cpu.observer import UnitIssueCounter
from repro.victims.integrity import setup_rdrand_victim


@dataclass
class RdrandBiasResult:
    outputs: List[int]
    desired_parity: int
    fenced: bool
    total_replays: int
    blind_releases: int

    @property
    def bias(self) -> float:
        """Fraction of outputs with the desired parity (0.5 = fair)."""
        if not self.outputs:
            return 0.0
        good = sum(1 for v in self.outputs
                   if v % 2 == self.desired_parity)
        return good / len(self.outputs)


@dataclass
class RdrandBiasAttack:
    """Run many victim sessions, biasing each draw via replay."""

    desired_parity: int = 0        # bias towards even values
    trials: int = 40
    max_replays_per_trial: int = 40
    fenced: bool = False
    walk_tuning: WalkTuning = field(default_factory=lambda: WalkTuning(
        upper=WalkLocation.PWC, leaf=WalkLocation.DRAM))

    def run(self) -> RdrandBiasResult:
        outputs: List[int] = []
        total_replays = 0
        blind = 0
        for trial in range(self.trials):
            value, replays, was_blind = self._one_trial(trial)
            outputs.append(value)
            total_replays += replays
            blind += int(was_blind)
        return RdrandBiasResult(outputs=outputs,
                                desired_parity=self.desired_parity,
                                fenced=self.fenced,
                                total_replays=total_replays,
                                blind_releases=blind)

    def _one_trial(self, trial: int):
        rep = Replayer(AttackEnvironment.build(
            machine_config=MachineConfig(core=CoreConfig(
                rdrand_fenced=self.fenced,
                rdrand_seed=0xABCD + trial)),
            module_config=MicroScopeConfig(fault_handler_cost=2000)))
        victim_proc = rep.create_victim_process("rdrand-victim")
        victim = setup_rdrand_victim(victim_proc)
        # The SMT observer: unit usage of the victim context since the
        # last window began.  (Stands in for the timed port-contention
        # monitor demonstrated in the §6.1 attack.)
        observer = UnitIssueCounter()
        rep.machine.attach(observer)
        window = observer.counts

        def observed_parity() -> Optional[int]:
            if window["div"] >= 2:
                return 1
            if window["mul"] >= 2:
                return 0
            return None

        state = {"blind": False}

        def race(_core, context, entry) -> bool:
            # Called at walk end for the faulted handle: win the race
            # (set present before the walker reads the leaf) only when
            # the observed parity is the desired one.
            if entry.addr is None or context.context_id != 0:
                return False
            if observed_parity() == self.desired_parity:
                rep.kernel.set_present(victim_proc, victim.handle_va,
                                       True)
                return True
            return False

        rep.machine.attach(SimpleNamespace(on_pte_race=race))

        def attack_fn(event) -> ReplayDecision:
            observer.reset()
            if event.replay_no >= self.max_replays_per_trial:
                state["blind"] = True
                return ReplayDecision(ReplayAction.RELEASE)
            return ReplayDecision(ReplayAction.REPLAY)

        recipe = rep.module.provide_replay_handle(
            victim_proc, victim.handle_va, name="rdrand-bias",
            attack_function=attack_fn, walk_tuning=self.walk_tuning)
        rep.launch_victim(victim_proc, victim.program)
        rep.arm(recipe)
        rep.run_until_victim_done(context_id=0, max_cycles=10_000_000)
        value = victim.read_output(victim_proc)
        return value, recipe.replays, state["blind"]
