"""SGX-Step / CacheZoom-style baseline ([57], [40]).

High-resolution timer interrupts stop the victim every few accesses;
between interrupts the attacker Prime+Probes the cache.  Table 1
classifies these as fine-grain, medium/high resolution, *with noise*:
"although these techniques encounter relatively low noise, they still
require multiple runs of the application to denoise the exfiltrated
information."

Our simulator is deterministic, so the channel's noise shows up in its
purest form: interrupt intervals are not aligned with the victim's
iterations, so an interval may contain zero, one, or several secret
accesses — per-interval attribution is ambiguous in a single run, and
runs with different phases must be combined.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List, Optional

from repro.core.analysis import classify_hits
from repro.core.module import MicroScopeConfig
from repro.core.replayer import AttackEnvironment, Replayer
from repro.cpu.traps import TrapAction
from repro.victims.loop_secret import setup_loop_secret_victim


@dataclass
class SteppingRunResult:
    #: Hit lines per interrupt interval, in order.
    interval_hits: List[List[int]]
    truth: List[int]
    #: Per-iteration guesses from this single run (None = ambiguous).
    extracted: List[Optional[int]]

    @property
    def single_run_accuracy(self) -> float:
        if not self.truth:
            return 1.0
        good = sum(1 for g, t in zip(self.extracted, self.truth)
                   if g == t)
        return good / len(self.truth)


@dataclass
class SteppingAttackReport:
    runs: List[SteppingRunResult]
    truth: List[int]
    combined: List[Optional[int]]

    @property
    def single_run_accuracy(self) -> float:
        return sum(r.single_run_accuracy
                   for r in self.runs) / max(len(self.runs), 1)

    @property
    def combined_accuracy(self) -> float:
        if not self.truth:
            return 1.0
        good = sum(1 for g, t in zip(self.combined, self.truth)
                   if g == t)
        return good / len(self.truth)


class SGXStepAttack:
    """Interrupt-driven Prime+Probe against the loop-secret victim."""

    def __init__(self, instructions_per_step: int = 9,
                 table_lines: int = 16, interrupt_cost: int = 1200,
                 probe_noise: float = 0.0):
        #: Victim instructions allowed to retire between interrupts —
        #: SGX-Step paces its APIC timer by enclave progress.
        self.instructions_per_step = instructions_per_step
        self.table_lines = table_lines
        self.interrupt_cost = interrupt_cost
        self.probe_noise = probe_noise

    def run_once(self, secrets: List[int], phase: int = 0,
                 seed_salt: int = 0) -> SteppingRunResult:
        rep = Replayer(AttackEnvironment.build(
            module_config=MicroScopeConfig(
                probe_noise=self.probe_noise,
                probe_noise_seed=991 + 7919 * seed_salt + phase)))
        victim_proc = rep.create_victim_process("step-victim")
        victim = setup_loop_secret_victim(victim_proc, secrets,
                                          table_lines=self.table_lines)
        probe_addrs = [victim.table_line_va(line)
                       for line in range(self.table_lines)]
        module = rep.module
        threshold = rep.machine.hierarchy.hit_latency(1)
        interval_hits: List[List[int]] = []

        def on_interrupt(core, context, reason):
            if reason != "sgx-step":
                return None
            hits = classify_hits(
                module.probe_lines(victim_proc, probe_addrs), threshold)
            interval_hits.append(hits)
            module.prime_lines(victim_proc, probe_addrs)
            return TrapAction(cost=self.interrupt_cost)

        rep.machine.attach(SimpleNamespace(on_interrupt=on_interrupt))
        rep.launch_victim(victim_proc, victim.program)
        module.prime_lines(victim_proc, probe_addrs)
        ctx = rep.machine.contexts[0]
        next_target = phase or self.instructions_per_step
        budget = 5_000_000
        while budget > 0 and not ctx.finished():
            # Single-cycle polling: the APIC one-shot timer fires with
            # instruction precision.
            rep.machine.step(1)
            budget -= 1
            if (ctx.stats.retired >= next_target
                    and ctx.pending_interrupt is None
                    and not ctx.finished()):
                ctx.pending_interrupt = "sgx-step"
                next_target = (ctx.stats.retired
                               + self.instructions_per_step)
        # Final probe catches the tail accesses.
        hits = classify_hits(
            module.probe_lines(victim_proc, probe_addrs), threshold)
        interval_hits.append(hits)
        extracted = self._attribute(interval_hits, len(secrets))
        return SteppingRunResult(interval_hits=interval_hits,
                                 truth=list(secrets),
                                 extracted=extracted)

    @staticmethod
    def _attribute(interval_hits: List[List[int]],
                   n: int) -> List[Optional[int]]:
        """Per-iteration attribution by successive differences.

        Deep out-of-order speculation re-touches every *unretired*
        iteration's line after each re-prime, so a line stays visible
        until its iteration retires and disappears afterwards.  The
        lines vanishing between consecutive probes are the secrets
        consumed in that step — unordered when more than one vanishes,
        which is this channel's noise.
        """
        raw_sets = [set(hits) for hits in interval_hits]
        all_lines = set().union(*raw_sets) if raw_sets else set()
        # Median-of-three smoothing per line: isolated flips are the
        # probe's measurement noise.
        sets: List[set] = [set() for _ in raw_sets]
        for line in all_lines:
            bits = [line in s for s in raw_sets]
            for k in range(len(bits)):
                window = bits[max(0, k - 1):k + 2]
                if sum(window) * 2 > len(window):
                    sets[k].add(line)
        sequence: List[Optional[int]] = []
        for k in range(len(sets) - 1):
            gone = sets[k] - sets[k + 1]
            if len(gone) == 1:
                sequence.append(gone.pop())
            else:
                sequence.extend([None] * len(gone))
        tail = sets[-1] if sets else set()
        if len(tail) == 1:
            sequence.append(next(iter(tail)))
        else:
            sequence.extend([None] * len(tail))
        sequence = sequence[:n]
        sequence += [None] * (n - len(sequence))
        return sequence

    def run(self, secrets: List[int], runs: int = 5
            ) -> SteppingAttackReport:
        """Multiple runs with different interrupt phases, majority
        combined — the paper's "multiple runs to denoise"."""
        # Same pacing each run (so per-iteration positions align) but
        # independent noise — each run is a fresh trace of the same
        # logical execution, which is exactly what "requires multiple
        # runs of the application" costs the baseline.
        results = [self.run_once(secrets, seed_salt=r)
                   for r in range(runs)]
        combined: List[Optional[int]] = []
        for i in range(len(secrets)):
            votes: Dict[int, int] = {}
            for result in results:
                guess = result.extracted[i]
                if guess is not None:
                    votes[guess] = votes.get(guess, 0) + 1
            if votes:
                best = max(votes.items(), key=lambda kv: kv[1])
                combined.append(best[0])
            else:
                combined.append(None)
        return SteppingAttackReport(runs=results, truth=list(secrets),
                                    combined=combined)
