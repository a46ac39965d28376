"""The Single-Secret attack (§4.2.1, Fig. 5): subnormal detection.

The victim computes ``secrets[id] / key`` exactly once.  A subnormal
operand/result makes the FP divider take its slow path (Andrysco et
al. [7]), so the victim holds the shared divider for much longer per
replay.  MicroScope replays the division in the shadow of the
``count++`` handle while the Monitor times division bursts on the SMT
sibling: the *magnitude* of the slow samples separates subnormal from
normal — per individual dynamic instruction, in one logical run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.analysis import derive_threshold
from repro.core.module import MicroScopeConfig
from repro.core.recipes import ReplayAction, ReplayDecision, WalkLocation, WalkTuning
from repro.core.replayer import AttackEnvironment, Replayer
from repro.cpu.config import CoreConfig
from repro.config import MachineConfig
from repro.victims.monitor import setup_port_contention_monitor
from repro.victims.single_secret import setup_single_secret_victim

#: A comfortably subnormal double.
SUBNORMAL = 5e-320


@dataclass
class SubnormalResult:
    is_subnormal_truth: bool
    samples: List[int]
    threshold: float
    #: Largest contention excursion observed (cycles over threshold).
    peak_excursion: int
    verdict: bool               # attacker's call: subnormal?
    replays: int

    @property
    def correct(self) -> bool:
        return self.verdict == self.is_subnormal_truth


@dataclass
class SubnormalDetectionAttack:
    """Detect whether one specific FP division has subnormal input."""

    measurements: int = 3000
    divs_per_sample: int = 4
    fault_handler_cost: int = 6000
    #: Excursions beyond this many cycles over the threshold indicate
    #: the slow (subnormal) divider path; the normal path's extra
    #: occupancy is bounded by one fdiv latency.
    subnormal_margin: int = 60
    walk_tuning: WalkTuning = field(default_factory=lambda: WalkTuning(
        upper=WalkLocation.PWC, leaf=WalkLocation.DRAM))

    def _replayer(self) -> Replayer:
        env = AttackEnvironment.build(
            machine_config=MachineConfig(core=CoreConfig(rdtsc_jitter=2)),
            module_config=MicroScopeConfig(
                fault_handler_cost=self.fault_handler_cost))
        return Replayer(env)

    def calibrate(self, samples: int = 1500) -> float:
        rep = self._replayer()
        monitor_proc = rep.create_monitor_process()
        monitor = setup_port_contention_monitor(
            monitor_proc, samples, self.divs_per_sample)
        rep.launch_monitor(monitor_proc, monitor.program, context_id=1)
        rep.run_until_victim_done(context_id=1, max_cycles=10_000_000)
        return derive_threshold(monitor.read_samples(monitor_proc))

    def run(self, secret_value: float, key: float = 1.0,
            threshold: Optional[float] = None) -> SubnormalResult:
        if threshold is None:
            threshold = self.calibrate()
        rep = self._replayer()
        victim_proc = rep.create_victim_process("victim")
        secrets = [1.0] * 16
        secrets[3] = secret_value
        victim = setup_single_secret_victim(victim_proc, secrets,
                                            secret_id=3, key=key)
        monitor_proc = rep.create_monitor_process("monitor")
        monitor = setup_port_contention_monitor(
            monitor_proc, self.measurements, self.divs_per_sample)
        monitor_ctx = rep.machine.contexts[1]

        def attack_fn(event) -> ReplayDecision:
            if monitor_ctx.finished():
                return ReplayDecision(ReplayAction.RELEASE)
            return ReplayDecision(ReplayAction.REPLAY)

        recipe = rep.module.provide_replay_handle(
            victim_proc, victim.count_va, name="subnormal-detect",
            attack_function=attack_fn, walk_tuning=self.walk_tuning)
        rep.launch_victim(victim_proc, victim.program)
        rep.launch_monitor(monitor_proc, monitor.program, context_id=1)
        rep.arm(recipe)
        rep.machine.run(80_000_000,
                        until=lambda _m: monitor_ctx.finished()
                        and recipe.released)
        rep.run_until_victim_done(context_id=0, max_cycles=1_000_000)

        samples = monitor.read_samples(monitor_proc)
        peak = max((s - threshold) for s in samples)
        truth = self._is_subnormal(secret_value / key) or \
            self._is_subnormal(secret_value)
        verdict = peak > self.subnormal_margin
        return SubnormalResult(
            is_subnormal_truth=truth, samples=samples,
            threshold=threshold, peak_excursion=int(peak),
            verdict=verdict, replays=recipe.replays)

    @staticmethod
    def _is_subnormal(value: float) -> bool:
        return value != 0.0 and abs(value) < 2.2250738585072014e-308


@dataclass
class SecretIdResult:
    true_line: int
    extracted_line: Optional[int]
    replays: int

    @property
    def correct(self) -> bool:
        return self.extracted_line == self.true_line


@dataclass
class SecretIdExtractionAttack:
    """The §4.2.1 alternative channel on the same Fig. 5 victim:
    instead of timing the division, the Replayer Prime+Probes the
    ``secrets`` table and extracts *which cache line* ``secrets[id]``
    lives on — revealing ``id`` at line granularity."""

    replays: int = 3
    num_secrets: int = 256     # 16 cache lines of 8-byte floats
    #: Machine-level defense knobs (``None`` = stock platform).
    machine: Optional[MachineConfig] = None
    #: Replay windows the platform grants before forcing release.
    replay_budget: Optional[int] = None

    def run(self, secret_id: int) -> SecretIdResult:
        from repro.core.analysis import classify_hits, majority_lines
        rep = Replayer(AttackEnvironment.build(
            machine_config=self.machine))
        victim_proc = rep.create_victim_process("victim")
        secrets = [1.0] * self.num_secrets
        victim = setup_single_secret_victim(
            victim_proc, secrets, secret_id=secret_id, key=2.0)
        lines = (self.num_secrets * 8) // 64
        probe_addrs = [victim.secrets_va + line * 64
                       for line in range(lines)]
        module = rep.module
        threshold = rep.machine.hierarchy.hit_latency(1)
        observed = []
        limit = self.replays if self.replay_budget is None \
            else min(self.replays, self.replay_budget)

        def attack_fn(event) -> ReplayDecision:
            hits = classify_hits(
                module.probe_lines(victim_proc, probe_addrs),
                threshold)
            observed.append(hits)
            cost = module.prime_lines(victim_proc, probe_addrs)
            if event.replay_no >= limit:
                return ReplayDecision(ReplayAction.RELEASE,
                                      extra_cost=cost)
            return ReplayDecision(ReplayAction.REPLAY, extra_cost=cost)

        recipe = module.provide_replay_handle(
            victim_proc, victim.count_va, name="secret-id",
            attack_function=attack_fn)
        rep.launch_victim(victim_proc, victim.program)
        module.prime_lines(victim_proc, probe_addrs)
        rep.arm(recipe)
        rep.run_until_victim_done(context_id=0, max_cycles=5_000_000)
        stable = majority_lines(observed[1:], quorum=max(
            1, len(observed) - 1))
        extracted = stable[0] if len(stable) == 1 else None
        return SecretIdResult(true_line=(secret_id * 8) // 64,
                              extracted_line=extracted,
                              replays=recipe.replays)
