"""The Loop-Secret attack (§4.2.2, Fig. 4b).

The victim loops over a secret array, performing one secret-indexed
table access per iteration between a replay handle (``pub_addrA``) and
a pivot (``pub_addrB``).  Without MicroScope, consecutive iterations
smear together in the cache; the attack isolates them using both
§4.2.2 capabilities:

* **Window tuning** — the Replayer keeps the page walk short (upper
  levels in the PWC, leaf PTE in L1), so only a small number of
  iterations fit in each speculative window;
* **The pivot** — after extracting iteration *i*, the handle/pivot
  present-bit swap retires exactly one iteration, so window *i+1*
  starts one iteration later.

Whatever still overlaps is removed by sequence decoding: the line
belonging to iteration *i* is the one that appears in window *i* but
not in window *i+1* (later windows no longer replay iteration *i* —
the paper's disambiguation argument), with a fallback for repeated
secrets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.config import MachineConfig
from repro.core.analysis import classify_hits, majority_lines
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


@dataclass
class LoopSecretResult:
    #: Per iteration: the table line the attack extracted (the secret),
    #: or None when ambiguous.
    extracted: List[Optional[int]]
    truth: List[int]
    replays: int
    #: Raw per-iteration window line sets (diagnostics).
    windows: List[Set[int]] = field(default_factory=list)

    @property
    def accuracy(self) -> float:
        if not self.truth:
            return 1.0
        hits = sum(1 for got, want in zip(self.extracted, self.truth)
                   if got == want)
        return hits / len(self.truth)

    @property
    def exact(self) -> bool:
        return self.extracted == self.truth


@dataclass
class LoopSecretAttack:
    """Extract each ``secret[i]`` in a single run of the victim loop."""

    replays_per_iteration: int = 3
    table_lines: int = 16
    stride: int = 64
    fault_handler_cost: int = 2500
    #: Probe measurement noise (shared channel model with the
    #: baselines): replays vote it away.
    probe_noise: float = 0.0
    #: Short walk: only upper levels in the PWC, leaf PTE in L1 — the
    #: §4.2.2 "short enough for a single secret transmission" tuning.
    walk_tuning: WalkTuning = field(default_factory=lambda: WalkTuning(
        upper=WalkLocation.PWC, leaf=WalkLocation.L1))
    #: Machine-level defense knobs (``None`` = stock platform).
    machine: Optional[MachineConfig] = None
    #: Cap on *total* replay windows across the whole loop (the
    #: cumulative ``replay_no``), as granted by budgeted defenses.
    replay_budget: Optional[int] = None

    def run(self, secrets: List[int]) -> LoopSecretResult:
        rep = Replayer(AttackEnvironment.build(
            machine_config=self.machine,
            module_config=MicroScopeConfig(
                fault_handler_cost=self.fault_handler_cost,
                probe_noise=self.probe_noise)))
        victim_proc = rep.create_victim_process("loop-victim")
        victim = setup_loop_secret_victim(
            victim_proc, secrets, table_lines=self.table_lines,
            stride=self.stride)
        probe_addrs = [victim.table_line_va(line)
                       for line in range(self.table_lines)]
        module = rep.module
        threshold = rep.machine.hierarchy.hit_latency(1)

        windows: List[Set[int]] = []
        replay_hits: List[List[int]] = []
        state = {"replay": 0}

        def on_handle(event: ReplayEvent) -> ReplayDecision:
            hits = classify_hits(
                module.probe_lines(victim_proc, probe_addrs), threshold)
            replay_hits.append(hits)
            state["replay"] += 1
            cost = module.prime_lines(victim_proc, probe_addrs)
            if self.replay_budget is not None \
                    and event.replay_no >= self.replay_budget:
                # The platform is out of replay windows: salvage the
                # partial window and let the victim run free.
                windows.append(set(majority_lines(replay_hits)))
                replay_hits.clear()
                return ReplayDecision(ReplayAction.RELEASE,
                                      extra_cost=cost)
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
            victim_proc, victim.handle_va, name="loop-secret",
            attack_function=on_handle, pivot_function=on_pivot,
            walk_tuning=self.walk_tuning)
        module.provide_pivot(recipe, victim.pivot_va)
        rep.launch_victim(victim_proc, victim.program)
        module.prime_lines(victim_proc, probe_addrs)
        rep.arm(recipe)
        rep.machine.run(
            100_000_000,
            until=lambda _m: rep.machine.contexts[0].finished())

        extracted = self._decode(windows, len(secrets))
        return LoopSecretResult(extracted=extracted,
                                truth=list(secrets),
                                replays=recipe.replays,
                                windows=windows)

    @staticmethod
    def _decode(windows: List[Set[int]], n: int) -> List[Optional[int]]:
        """Backward sequence decoding.

        Window *i* holds ``{s_i, ..., s_{i+span-1}}`` for a small span
        (the walk-tuned window covers a couple of iterations), so going
        backwards: once ``s_{i+1}..`` are known, iteration *i*'s line
        is the window-*i* element the future doesn't explain.  When the
        future explains everything (a repeated secret), prefer the
        adjacent repeat — the only genuinely ambiguous case is a
        repeat, and windows shrink as the loop ends, seeding the pass
        with singletons.
        """
        extracted: List[Optional[int]] = [None] * n
        # Pass 1 — forward differencing: a line present in window i but
        # absent from window i+1 was consumed by iteration i (later
        # windows no longer replay it — the §4.2.2 argument).
        for i in range(min(n, len(windows))):
            window = windows[i]
            if len(window) == 1:
                extracted[i] = next(iter(window))
                continue
            nxt = windows[i + 1] if i + 1 < len(windows) else set()
            gone = window - nxt
            if len(gone) == 1:
                extracted[i] = next(iter(gone))
        # Pass 2 — backward repair for repeated secrets: when the
        # future fully explains window i, iteration i repeats an
        # adjacent value.
        for i in range(min(n, len(windows)) - 1, -1, -1):
            if extracted[i] is not None:
                continue
            window = windows[i]
            future = {extracted[j] for j in range(i + 1, min(i + 4, n))
                      if extracted[j] is not None}
            unexplained = window - future
            if len(unexplained) == 1:
                extracted[i] = next(iter(unexplained))
            elif not unexplained and i + 1 < n \
                    and extracted[i + 1] in window:
                extracted[i] = extracted[i + 1]
        return extracted
