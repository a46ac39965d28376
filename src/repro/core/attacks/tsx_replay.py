"""TSX transaction aborts as replay handles (§7.1).

"Intel's TSX will abort a transaction if dirty data is evicted from
the private cache, which can be easily controlled by an attacker."
Each abort rolls the victim back to its TBEGIN and the fallback path
retries — an architectural replay whose window is the *whole
transaction*, not the ROB.

Two consequences the paper highlights, both demonstrated here:

* the replayed window can be arbitrarily large;
* fencing RDRAND no longer helps: the transaction body executes (and
  leaks) architecturally before the abort rolls it back, so the §7.2
  bias attack works even against fenced RDRAND.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.replayer import AttackEnvironment, Replayer
from repro.cpu.config import CoreConfig
from repro.config import MachineConfig
from repro.cpu.observer import UnitIssueCounter
from repro.victims.integrity import setup_tsx_victim


@dataclass
class TSXReplayResult:
    outputs: List[int]
    desired_parity: int
    fenced: bool
    total_aborts: int
    trials: int

    @property
    def bias(self) -> float:
        if not self.outputs:
            return 0.0
        good = sum(1 for v in self.outputs
                   if v % 2 == self.desired_parity)
        return good / len(self.outputs)

    @property
    def mean_replays(self) -> float:
        return self.total_aborts / self.trials if self.trials else 0.0


@dataclass
class TSXReplayAttack:
    """Bias the TSX victim's committed RDRAND value by selectively
    aborting transactions whose observed parity is undesired."""

    desired_parity: int = 0
    trials: int = 25
    max_aborts_per_trial: int = 60
    fenced: bool = True   # the point: the fence does NOT stop this one

    def run(self) -> TSXReplayResult:
        outputs: List[int] = []
        total_aborts = 0
        for trial in range(self.trials):
            value, aborts = self._one_trial(trial)
            outputs.append(value)
            total_aborts += aborts
        return TSXReplayResult(outputs=outputs,
                               desired_parity=self.desired_parity,
                               fenced=self.fenced,
                               total_aborts=total_aborts,
                               trials=self.trials)

    def _one_trial(self, trial: int):
        rep = Replayer(AttackEnvironment.build(
            machine_config=MachineConfig(core=CoreConfig(
                rdrand_fenced=self.fenced,
                rdrand_seed=0x7531 + trial))))
        victim_proc = rep.create_victim_process("tsx-victim")
        victim = setup_tsx_victim(victim_proc,
                                  max_retries=self.max_aborts_per_trial)
        victim_ctx = rep.machine.contexts[0]
        buffer_paddr = victim_proc.translate_any(victim.txn_buffer_va)

        # Observer: parity leaks through unit usage *inside* the
        # transaction (these instructions execute and even retire into
        # the transactional buffer before any abort).
        observer = UnitIssueCounter()
        rep.machine.attach(observer)
        window = observer.counts

        def undesired_parity_observed() -> bool:
            if self.desired_parity == 0:
                return window["div"] >= 2
            return window["mul"] >= 2

        rep.launch_victim(victim_proc, victim.program)
        # Drive the machine, evicting the write-set line whenever the
        # observed parity is wrong — the attacker-controlled abort.
        budget = 3_000_000
        while budget > 0 and not victim_ctx.finished():
            # Fine-grained polling: the parity must be acted on before
            # the transaction commits.
            rep.machine.step(10)
            budget -= 10
            if victim_ctx.in_transaction and undesired_parity_observed():
                rep.machine.hierarchy.flush_line(buffer_paddr)
                observer.reset()
            elif not victim_ctx.in_transaction:
                observer.reset()
        value = victim.read_output(victim_proc)
        return value, victim_ctx.stats.txn_aborts


@dataclass
class TSGXInteraction:
    """Helper for the §8 T-SGX discussion: with an abort threshold of
    N, the attacker still gets N-1 replays before termination."""

    threshold: int = 10
