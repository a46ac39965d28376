"""The port-contention attack of §4.3 / §6.1 (Figure 10).

Setup: the victim runs the Control-Flow-Secret code of Fig. 6 inside an
enclave on SMT context 0; the Monitor (Fig. 7) free-runs on SMT context
1, timing bursts of floating-point divisions.  The Replayer faults the
victim's replay handle and keeps the present bit clear, so the two
secret-dependent operations replay over and over in the shadow of the
page walk.  If the secret selects the division side, the victim's
divides occupy the shared non-pipelined divider and a fraction of the
Monitor's bursts cross the contention threshold; on the multiply side
they do not.

The experiment reports exactly what Fig. 10 plots: every Monitor
latency sample, the threshold, and the above-threshold counts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.analysis import ConfidenceTracker, derive_threshold, summarize
from repro.core.recipes import (
    ReplayAction,
    ReplayDecision,
    WalkLocation,
    WalkTuning,
)
from repro.core.module import MicroScopeConfig
from repro.core.replayer import AttackEnvironment, Replayer
from repro.config import MachineConfig
from repro.snapshot import warm_key, warm_start
from repro.victims.control_flow import setup_control_flow_victim
from repro.victims.monitor import setup_port_contention_monitor


@dataclass
class PortContentionResult:
    """Everything Figure 10 needs, for one victim secret."""

    secret: int                   # ground truth (0 = mul, 1 = div)
    samples: List[int]            # all Monitor latencies, in order
    threshold: float
    above_threshold: int
    replays: int
    verdict: Optional[bool]       # attacker's call: True = div side
    cycles: int

    @property
    def correct(self) -> bool:
        return self.verdict is not None and int(self.verdict) == self.secret


@dataclass
class PortContentionAttack:
    """One-shot driver for the Fig. 10 experiment."""

    measurements: int = 10_000
    divs_per_sample: int = 4
    #: Replay-handler cost: dominates the replay period.  Real fault
    #: handling plus the module's flushes is on the order of 10 us
    #: (tens of thousands of cycles), which is what makes the
    #: above-threshold counts small fractions of the trace (§6.1).
    fault_handler_cost: int = 18_000
    walk_tuning: WalkTuning = field(default_factory=lambda: WalkTuning(
        upper=WalkLocation.PWC, leaf=WalkLocation.DRAM))
    #: RDTSC measurement jitter (cycles): models timer noise.
    rdtsc_jitter: int = 3
    divisions: int = 2
    multiplications: int = 2
    max_cycles: int = 50_000_000
    #: Machine-level defense knobs; merged with the attack's own
    #: ``rdtsc_jitter`` (which models the Monitor's timer, not a
    #: defense).  ``None`` = stock platform.
    machine: Optional[MachineConfig] = None
    #: Cap on replay windows the platform grants before the handle is
    #: released (T-SGX / Déjà-Vu style budgets).
    replay_budget: Optional[int] = None

    def _build_environment(self) -> Replayer:
        base = self.machine if self.machine is not None \
            else MachineConfig()
        machine_config = dataclasses.replace(
            base, core=dataclasses.replace(
                base.core, rdtsc_jitter=self.rdtsc_jitter))
        env = AttackEnvironment.build(
            machine_config=machine_config,
            module_config=MicroScopeConfig(
                fault_handler_cost=self.fault_handler_cost))
        return Replayer(env)

    def _build_calibration_environment(self, samples: int):
        rep = self._build_environment()
        monitor_proc = rep.create_monitor_process()
        monitor = setup_port_contention_monitor(
            monitor_proc, samples, self.divs_per_sample)
        rep.launch_monitor(monitor_proc, monitor.program, context_id=1)
        return rep.env, (monitor_proc, monitor)

    def _build_attack_environment(self):
        """Builder for the warm-start cache: victim and Monitor both
        launched, no recipe yet.  The victim is built with secret 0;
        :meth:`run` rewrites the secret word after every rewind, so
        both Fig. 10 panels share this one snapshot."""
        rep = self._build_environment()
        victim_proc = rep.create_victim_process("victim")
        victim = setup_control_flow_victim(
            victim_proc, 0, divisions=self.divisions,
            multiplications=self.multiplications)
        monitor_proc = rep.create_monitor_process("monitor")
        monitor = setup_port_contention_monitor(
            monitor_proc, self.measurements, self.divs_per_sample)
        rep.launch_victim(victim_proc, victim.program)
        rep.launch_monitor(monitor_proc, monitor.program, context_id=1)
        return rep.env, (victim_proc, victim, monitor_proc, monitor)

    def calibrate(self, samples: int = 2000) -> float:
        """Derive the contention threshold from a quiet run of the
        Monitor (no victim replaying) — how the paper picks its
        ~120-cycle line from the mul-side distribution."""
        env, (monitor_proc, monitor) = warm_start(
            warm_key(self, "_build_calibration_environment",
                     samples=samples),
            lambda: self._build_calibration_environment(samples))
        rep = Replayer(env)
        rep.run_until_victim_done(context_id=1,
                                  max_cycles=self.max_cycles)
        calibration = monitor.read_samples(monitor_proc)
        return derive_threshold(calibration)

    def prepare(self, secret: int):
        """Warm-start the launched environment, retarget the secret,
        and arm the replay recipe.  Returns the armed run state; used
        by :meth:`run` and by checkpoint/rewind benchmarks that want
        to snapshot mid-attack."""
        env, (victim_proc, victim, monitor_proc, monitor) = warm_start(
            warm_key(self, "_build_attack_environment",
                     rewrites=("secret",)),
            self._build_attack_environment)
        victim.write_secret(victim_proc, secret)
        rep = Replayer(env)

        monitor_ctx = rep.machine.contexts[1]

        def attack_fn(event) -> ReplayDecision:
            # Keep replaying until the Monitor's buffer is full; then
            # let the victim make forward progress (§4.1.4 step 6).
            # A budgeted platform forces the release early.
            if self.replay_budget is not None \
                    and event.replay_no >= self.replay_budget:
                return ReplayDecision(ReplayAction.RELEASE)
            if monitor_ctx.finished():
                return ReplayDecision(ReplayAction.RELEASE)
            return ReplayDecision(ReplayAction.REPLAY)

        recipe = rep.module.provide_replay_handle(
            victim_proc, victim.handle_va + 0x20,
            name="fig10-port-contention",
            attack_function=attack_fn,
            walk_tuning=self.walk_tuning)
        rep.arm(recipe)
        return rep, recipe, monitor_proc, monitor, monitor_ctx

    def finish(self, rep: Replayer, recipe, monitor_proc, monitor,
               monitor_ctx, secret: int,
               threshold: float) -> PortContentionResult:
        """Run an armed attack to completion and harvest Fig. 10."""
        cycles = rep.machine.run(
            self.max_cycles,
            until=lambda _m: monitor_ctx.finished() and recipe.released)
        # Drain the victim to completion (it retires normally now).
        rep.run_until_victim_done(context_id=0, max_cycles=1_000_000)

        samples = monitor.read_samples(monitor_proc)
        summary = summarize(samples, threshold)
        verdict = self._classify(samples, threshold)
        return PortContentionResult(
            secret=secret, samples=samples, threshold=threshold,
            above_threshold=summary.above, replays=recipe.replays,
            verdict=verdict, cycles=cycles)

    def run(self, secret: int,
            threshold: Optional[float] = None) -> PortContentionResult:
        """Execute the full attack against a victim holding *secret*."""
        if threshold is None:
            threshold = self.calibrate()
        rep, recipe, monitor_proc, monitor, monitor_ctx = \
            self.prepare(secret)
        return self.finish(rep, recipe, monitor_proc, monitor,
                           monitor_ctx, secret, threshold)

    def _classify(self, samples: List[int],
                  threshold: float) -> Optional[bool]:
        """Sequential test: is the above-threshold rate the contended
        one?  (The attacker's per-sample decision loop.)"""
        tracker = ConfidenceTracker(rate_h0=0.0005, rate_h1=0.004)
        for sample in samples:
            tracker.observe(sample > threshold)
            if tracker.decided:
                break
        if tracker.verdict is not None:
            return tracker.verdict
        # Undecided after the full trace: fall back to the MAP choice.
        rate = sum(1 for s in samples if s > threshold) / len(samples)
        return rate > (0.0005 + 0.004) / 2


def _panel_trial(params, _seed: int) -> PortContentionResult:
    """One Fig. 10 panel as a harness sweep trial (top-level so the
    pool can pickle it; panels warm-start from the shared post-launch
    snapshot and differ only in the rewritten secret word)."""
    attack, secret, threshold = params
    return attack.run(secret=secret, threshold=threshold)


def run_figure10(measurements: int = 10_000,
                 attack: Optional[PortContentionAttack] = None,
                 workers: int = 1, policy=None) -> dict:
    """Reproduce both panels of Figure 10; returns a result dict keyed
    ``"mul"`` / ``"div"``.  The panels are independent simulations and
    share only the calibrated threshold, so ``workers=2`` runs them in
    parallel with identical results.  Pass a
    :class:`~repro.harness.FaultPolicy` as *policy* to retry panels
    whose worker crashes or hangs (each panel is a pure function of
    the attack parameters, so retries reproduce it exactly)."""
    attack = attack or PortContentionAttack(measurements=measurements)
    threshold = attack.calibrate()
    from repro.harness import run_resilient_sweep
    sweep = run_resilient_sweep(
        _panel_trial,
        [(attack, 0, threshold), (attack, 1, threshold)],
        workers=workers, policy=policy, label="fig10")
    mul, div = sweep.results()
    return {"mul": mul, "div": div}
