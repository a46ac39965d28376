"""Adaptive attack recipes (§5.2.1).

"This modular design allows an attacker to ... dynamically change the
attack recipe depending on the victim behavior.  For example, if a
side-channel attack is unsuccessful for a number of replays, the
attacker can switch from a long page walk to a short one."

Demonstrated here on the loop-secret victim: the attack *starts* with
a long (DRAM-leaf) walk, whose huge speculative window covers many
iterations at once — the probe returns piles of lines and extraction
is ambiguous.  After a configurable number of uninformative replays
the attack function rewrites its own recipe's walk tuning to the short
(L1-leaf) configuration; windows shrink to a couple of iterations and
extraction proceeds as in the §4.2.2 attack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from repro.core.analysis import classify_hits, majority_lines
from repro.core.attacks.loop_secret import LoopSecretAttack
from repro.core.module import MicroScopeConfig
from repro.core.recipes import (
    ReplayAction,
    ReplayDecision,
    ReplayEvent,
    WalkLocation,
    WalkTuning,
)
from repro.core.replayer import AttackEnvironment, Replayer
from repro.victims.loop_secret import setup_loop_secret_victim

#: A probe returning more than this many lines is "uninformative":
#: the window is too wide to attribute.
AMBIGUITY_LIMIT = 3


@dataclass
class AdaptiveAttackResult:
    extracted: List[Optional[int]]
    truth: List[int]
    #: Replay number at which the recipe switched to the short walk.
    switched_at_replay: Optional[int]
    #: Probe widths (distinct lines) before and after the switch.
    widths_before: List[int]
    widths_after: List[int]

    @property
    def accuracy(self) -> float:
        if not self.truth:
            return 1.0
        good = sum(1 for got, want in zip(self.extracted, self.truth)
                   if got == want)
        return good / len(self.truth)

    @property
    def adapted(self) -> bool:
        return self.switched_at_replay is not None


@dataclass
class AdaptiveWalkAttack:
    """Loop-secret extraction that tunes its own walk length online."""

    replays_per_iteration: int = 3
    uninformative_limit: int = 2
    table_lines: int = 16

    def run(self, secrets: List[int]) -> AdaptiveAttackResult:
        rep = Replayer(AttackEnvironment.build(
            module_config=MicroScopeConfig(fault_handler_cost=2500)))
        victim_proc = rep.create_victim_process("adaptive-victim")
        victim = setup_loop_secret_victim(
            victim_proc, secrets, table_lines=self.table_lines)
        probe_addrs = [victim.table_line_va(line)
                       for line in range(self.table_lines)]
        module = rep.module
        threshold = rep.machine.hierarchy.hit_latency(1)

        windows: List[Set[int]] = []
        replay_hits: List[List[int]] = []
        state = {"replay": 0, "uninformative": 0,
                 "switched_at": None}
        widths_before: List[int] = []
        widths_after: List[int] = []

        def on_handle(event: ReplayEvent) -> ReplayDecision:
            hits = classify_hits(
                module.probe_lines(victim_proc, probe_addrs), threshold)
            cost = module.prime_lines(victim_proc, probe_addrs)
            if state["switched_at"] is None:
                widths_before.append(len(hits))
            else:
                widths_after.append(len(hits))
            if state["switched_at"] is None \
                    and len(hits) > AMBIGUITY_LIMIT:
                state["uninformative"] += 1
                if state["uninformative"] >= self.uninformative_limit:
                    # THE §5.2.1 MOVE: rewrite the live recipe.
                    event.recipe.walk_tuning = WalkTuning(
                        upper=WalkLocation.PWC, leaf=WalkLocation.L1)
                    state["switched_at"] = event.replay_no
                    replay_hits.clear()
                    state["replay"] = 0
                    return ReplayDecision(ReplayAction.REPLAY,
                                          extra_cost=cost)
                return ReplayDecision(ReplayAction.REPLAY,
                                      extra_cost=cost)
            replay_hits.append(hits)
            state["replay"] += 1
            if state["replay"] < self.replays_per_iteration:
                return ReplayDecision(ReplayAction.REPLAY,
                                      extra_cost=cost)
            state["replay"] = 0
            windows.append(set(majority_lines(replay_hits)))
            replay_hits.clear()
            if len(windows) >= len(secrets):
                return ReplayDecision(ReplayAction.RELEASE,
                                      extra_cost=cost)
            return ReplayDecision(ReplayAction.PIVOT, extra_cost=cost)

        def on_pivot(event: ReplayEvent) -> ReplayDecision:
            cost = module.prime_lines(victim_proc, probe_addrs)
            return ReplayDecision(ReplayAction.PIVOT, extra_cost=cost)

        recipe = module.provide_replay_handle(
            victim_proc, victim.handle_va, name="adaptive-loop",
            attack_function=on_handle, pivot_function=on_pivot,
            walk_tuning=WalkTuning(upper=WalkLocation.PWC,
                                   leaf=WalkLocation.DRAM))
        module.provide_pivot(recipe, victim.pivot_va)
        rep.launch_victim(victim_proc, victim.program)
        module.prime_lines(victim_proc, probe_addrs)
        rep.arm(recipe)
        rep.machine.run(
            150_000_000,
            until=lambda _m: rep.machine.contexts[0].finished())

        extracted = LoopSecretAttack._decode(windows, len(secrets))
        return AdaptiveAttackResult(
            extracted=extracted, truth=list(secrets),
            switched_at_replay=state["switched_at"],
            widths_before=widths_before, widths_after=widths_after)
