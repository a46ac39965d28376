"""Extracting an RSA-style secret exponent, bit by bit, in one run.

The modexp victim (:mod:`repro.victims.rsa`) leaks each exponent bit
through whether its iteration takes the multiply path.  MicroScope
isolates iterations exactly as §4.2.2 prescribes — handle fault,
replays, pivot swap — and the Replayer Prime+Probes the multiply
path's operand line after every replay.  Because the operand line
rotates with the iteration index (as bignum limb accesses do), windows
that span a couple of iterations remain decodable: iteration *i*'s bit
is read off line ``i % 8``.

A square-and-multiply exponent leak at instruction granularity in a
single logical run is precisely the paper's "boost the effectiveness
of almost all of the above attacks" claim applied to the classic
crypto target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

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
from repro.snapshot import warm_key, warm_start
from repro.victims.rsa import MULT_BUFFER_LINES, setup_modexp_victim


@dataclass
class ModExpExtractionResult:
    exponent: int
    extracted_bits: List[Optional[int]]
    windows: List[Set[int]]
    replays: int
    result_correct: bool       # the victim still computed base^e mod m

    @property
    def true_bits(self) -> List[int]:
        return [(self.exponent >> i) & 1
                for i in range(max(self.exponent.bit_length(), 1))]

    @property
    def accuracy(self) -> float:
        truth = self.true_bits
        good = sum(1 for got, want in zip(self.extracted_bits, truth)
                   if got == want)
        return good / len(truth) if truth else 1.0

    @property
    def recovered_exponent(self) -> Optional[int]:
        if any(bit is None for bit in self.extracted_bits):
            return None
        value = 0
        for i, bit in enumerate(self.extracted_bits):
            value |= bit << i
        return value

    @property
    def exact(self) -> bool:
        return self.recovered_exponent == self.exponent


@dataclass
class ModExpExtractionAttack:
    """Single-run exponent extraction from the modexp victim."""

    base: int = 0x1234_5
    modulus: int = 0xFFFF_FFFB     # a 32-bit prime
    replays_per_iteration: int = 3
    fault_handler_cost: int = 2500
    walk_tuning: WalkTuning = field(default_factory=lambda: WalkTuning(
        upper=WalkLocation.PWC, leaf=WalkLocation.L1))

    def _build_platform(self):
        env = AttackEnvironment.build(
            module_config=MicroScopeConfig(
                fault_handler_cost=self.fault_handler_cost))
        return env, None

    def run(self, exponent: int) -> ModExpExtractionResult:
        # The exponent is a program immediate (and covered by the
        # enclave measurement), so unlike the AES/Fig. 10 victims the
        # snapshot point sits *before* victim setup: the platform build
        # is shared across exponents and the cheap per-exponent victim
        # construction is redone after every rewind.
        env, _ = warm_start(warm_key(self, "_build_platform"),
                            self._build_platform)
        rep = Replayer(env)
        victim_proc = rep.create_victim_process("modexp-victim")
        victim = setup_modexp_victim(victim_proc, self.base, exponent,
                                     self.modulus)
        bits = victim.bits
        probe_addrs = [victim.mult_buffer_va + line * 64
                       for line in range(MULT_BUFFER_LINES)]
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
            if state["replay"] < self.replays_per_iteration:
                return ReplayDecision(ReplayAction.REPLAY,
                                      extra_cost=cost)
            state["replay"] = 0
            windows.append(set(majority_lines(replay_hits)))
            replay_hits.clear()
            if len(windows) >= bits:
                return ReplayDecision(ReplayAction.RELEASE,
                                      extra_cost=cost)
            return ReplayDecision(ReplayAction.PIVOT, extra_cost=cost)

        def on_pivot(event: ReplayEvent) -> ReplayDecision:
            cost = module.prime_lines(victim_proc, probe_addrs)
            return ReplayDecision(ReplayAction.PIVOT, extra_cost=cost)

        recipe = module.provide_replay_handle(
            victim_proc, victim.handle_va, name="modexp-extract",
            attack_function=on_handle, pivot_function=on_pivot,
            walk_tuning=self.walk_tuning)
        module.provide_pivot(recipe, victim.pivot_va)
        rep.launch_victim(victim_proc, victim.program)
        module.prime_lines(victim_proc, probe_addrs)
        rep.arm(recipe)
        rep.machine.run(
            300_000_000,
            until=lambda _m: rep.machine.contexts[0].finished())

        extracted = self._decode(windows, bits)
        result_correct = (victim.read_result(victim_proc)
                          == victim.expected_result())
        return ModExpExtractionResult(
            exponent=exponent, extracted_bits=extracted,
            windows=windows, replays=recipe.replays,
            result_correct=result_correct)

    @staticmethod
    def _decode(windows: List[Set[int]], bits: int
                ) -> List[Optional[int]]:
        """Window *i* may span iterations i..i+2; iteration *i*'s bit
        is whether line ``i % 8`` appears in window *i* (the rotation
        guarantees no two in-window iterations share a line)."""
        extracted: List[Optional[int]] = []
        for i in range(bits):
            if i >= len(windows):
                extracted.append(None)
                continue
            extracted.append(
                1 if (i % MULT_BUFFER_LINES) in windows[i] else 0)
        return extracted
