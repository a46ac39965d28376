"""Branch mispredictions as (bounded) replay handles (§7.1).

"Any instruction which can squash speculative execution, e.g. a branch
that mispredicts, can cause some subsequent code to be replayed.
Since a branch will not mispredict an infinite number of times, the
application will eventually make forward progress."

The attacker primes the branch predictor (as in [33]) so the victim's
secret-dependent branch mispredicts, which makes the transmit code of
*both* paths execute once (wrong path, then right path) — a small,
bounded number of replays, contrasted here with the unbounded
page-fault replays of the main attack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.config import MachineConfig
from repro.core.replayer import AttackEnvironment, Replayer
from repro.cpu.observer import UnitIssueCounter
from repro.sgx.enclave import EnclaveConfig
from repro.victims.control_flow import setup_control_flow_victim


@dataclass
class MispredictReplayResult:
    secret: int
    primed_taken: bool
    mispredicted: bool
    #: Execution-unit usage observed by the SMT sibling.
    mul_issues: int
    div_issues: int
    #: Squashed-then-refetched dynamic instructions.
    replayed_instructions: int

    @property
    def both_paths_observed(self) -> bool:
        return self.mul_issues >= 2 and self.div_issues >= 2


@dataclass
class MispredictReplayAttack:
    """Measure the replays obtainable from one primed misprediction."""

    #: Machine-level defense knobs (``None`` = stock platform).
    machine: Optional[MachineConfig] = None

    def run(self, secret: int, primed_taken: bool
            ) -> MispredictReplayResult:
        # No predictor flush: the attacker's priming must survive into
        # the victim's execution (the [33]-style setup).
        rep = Replayer(AttackEnvironment.build(
            machine_config=self.machine))
        victim_proc = rep.create_victim_process(
            "victim",
            enclave_config=EnclaveConfig(
                flush_predictor_on_boundary=False))
        victim = setup_control_flow_victim(victim_proc, secret)
        observer = UnitIssueCounter()
        rep.machine.attach(observer)
        counts = observer.counts
        # Prime the counter for the victim's secret branch.
        branch_index = next(
            i for i, ins in enumerate(victim.program.instructions)
            if ins.is_cond_branch)
        rep.machine.core.predictor.prime(branch_index, primed_taken)
        rep.launch_victim(victim_proc, victim.program)
        rep.run_until_victim_done(context_id=0, max_cycles=100_000)
        ctx = rep.machine.contexts[0]
        # Taken == div side in the Fig. 6 victim.
        mispredicted = primed_taken != bool(secret)
        return MispredictReplayResult(
            secret=secret, primed_taken=primed_taken,
            mispredicted=mispredicted,
            mul_issues=counts["mul"], div_issues=counts["div"],
            replayed_instructions=ctx.stats.replays)


def infer_secret_by_priming(
        secret: int,
        machine: Optional[MachineConfig] = None) -> Dict[str, object]:
    """The §4.2.3 inference: with the predictor in a known state,
    *whether a misprediction happens* reveals ``secret == prediction``.

    The attacker primes "taken" (div side); observing both paths'
    units fire means a misprediction, i.e. the secret was the mul
    side.  Returns the attacker's guess and the evidence.
    """
    attack = MispredictReplayAttack(machine=machine)
    result = attack.run(secret, primed_taken=True)
    misprediction_observed = result.both_paths_observed
    guessed_secret = 0 if misprediction_observed else 1
    return {
        "guessed_secret": guessed_secret,
        "correct": guessed_secret == secret,
        "misprediction_observed": misprediction_observed,
        "result": result,
    }
