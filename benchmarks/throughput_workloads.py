"""Workload builders shared by the throughput benchmark and the CI
smoke check.

Three workloads, in increasing relevance to the paper:

* ``spin`` — a dependency-light multiply loop; measures raw per-cycle
  stepping overhead.
* ``smt spin`` — the same loop on both SMT contexts.
* ``replay attack`` — the MicroScope shape itself: a control-flow
  victim whose replay handle is kept non-present, so the pipeline
  spends nearly all its time stalled behind tuned page walks and
  kernel fault handling.  This is where ``Machine.run``'s skipping of
  provably-empty cycles earns its keep, and the workload the CI
  regression gate watches.
"""

import time

from repro.core.attacks.aes_cache import AESCacheAttack
from repro.core.attacks.port_contention import PortContentionAttack
from repro.core.recipes import WalkLocation, WalkTuning, replay_n_times
from repro.core.replayer import AttackEnvironment, Replayer
from repro.cpu.machine import Machine
from repro.isa.program import ProgramBuilder
from repro.reporting import machine_report
from repro.snapshot import clear_cache
from repro.victims.control_flow import setup_control_flow_victim


def busy_program(iterations):
    return (ProgramBuilder("spin")
            .li("r1", 0).li("r2", iterations).li("r3", 7)
            .label("loop")
            .mul("r4", "r3", "r3")
            .addi("r1", "r1", 1)
            .bne("r1", "r2", "loop")
            .halt().build())


def run_spin(iterations: int, contexts: int = 1) -> int:
    """Run the spin workload; return simulated cycles."""
    machine = Machine()
    per_context = iterations // contexts
    for context_id in range(contexts):
        machine.contexts[context_id].load_program(
            busy_program(per_context))
    machine.run(100_000)
    return machine.cycle


def run_replay_attack(fast_forward: bool, replays: int = 200,
                      tracer=None):
    """Run the replay-attack workload; return ``(cycles, report)``.

    *fast_forward* runs the victim with ``Machine.run``, which skips
    provably-empty cycles; without it the victim is stepped once per
    cycle by an explicit loop.  The report snapshot (per-context
    stats, cache/TLB/walker counters) lets callers assert that the
    skipping is bit-exact against naive stepping, not merely
    cycle-equal.  Passing a *tracer* (an ``EventTracer``) attaches it
    for the whole run — the CI overhead check uses this to price
    tracing and to prove it does not perturb simulation results.
    """
    rep = Replayer(AttackEnvironment.build())
    if tracer is not None:
        rep.machine.attach_tracer(tracer)
    victim_proc = rep.create_victim_process("victim")
    victim = setup_control_flow_victim(victim_proc, secret=1,
                                       divisions=2, multiplications=2)
    recipe = rep.module.provide_replay_handle(
        victim_proc, victim.handle_va + 0x20, name="throughput-replay",
        attack_function=replay_n_times(replays),
        walk_tuning=WalkTuning(upper=WalkLocation.PWC,
                               leaf=WalkLocation.DRAM),
        max_replays=10 ** 9)
    rep.launch_victim(victim_proc, victim.program)
    rep.arm(recipe)
    if fast_forward:
        rep.run_until_victim_done(context_id=0, max_cycles=100_000_000)
    else:
        victim_ctx = rep.machine.contexts[0]
        core = rep.machine.core
        limit = core.cycle + 100_000_000
        while (core.cycle < limit and not victim_ctx.finished()
               and core.busy()):
            core.step()
    return rep.machine.cycle, machine_report(rep.machine, rep.kernel,
                                             rep.module)


def timed(fn, *args, **kwargs):
    """Run *fn* once; return ``(result, host_seconds)``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, max(time.perf_counter() - start, 1e-9)


# ---------------------------------------------------------------------------
# Warm-start vs cold-start window workloads (repro.snapshot)
#
# MicroScope's unit of work is the *window*: one replayed fault site
# with its probes.  Historically every observation of a late window
# paid the full run from a cold platform; with checkpoint/rewind the
# shared prefix is simulated once and each trial replays only the
# window of interest — the O(N·full-run) -> O(setup + N·window)
# amortization the snapshot subsystem exists for.  Both workloads
# return the measured data so callers can assert that warm trials are
# bit-identical to the cold baseline.
# ---------------------------------------------------------------------------

AES_KEY = bytes(range(16))
AES_CIPHERTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
#: rk fault sites completed before the checkpoint; the measured window
#: is everything after (the fourth td0/rk site pair of round 1).
AES_PREFIX_RK_SITES = 3
AES_TARGET_RK_SITES = 4


def _aes_stepper():
    attack = AESCacheAttack(AES_KEY, AES_CIPHERTEXT)
    rep, _victim, stepper = attack._setup(prime_before_first=True)
    stepper.stop_after_rk_sites = AES_TARGET_RK_SITES
    return rep, stepper


def _probe_data(stepper):
    return [(p.step, p.kind, p.replay, p.latencies)
            for p in stepper.probes]


def run_aes_window_cold():
    """One cold observation of the fourth rk window: fresh platform,
    full §4.4 stepped run from the prologue."""
    clear_cache()
    rep, stepper = _aes_stepper()
    rep.machine.run(60_000_000, until=lambda _m: stepper.done)
    return _probe_data(stepper)


def make_aes_window_replayer():
    """Pay the shared prefix once — build, launch, step through the
    first three rk sites — checkpoint there, and return a trial
    callable that rewinds and measures only the final window."""
    clear_cache()
    rep, stepper = _aes_stepper()
    rep.machine.run(
        60_000_000,
        until=lambda _m: stepper.rk_sites >= AES_PREFIX_RK_SITES)
    rep.checkpoint()
    # The stepper's Python-side cursor at the checkpoint; rewinding
    # the platform resets the machine, so trials reset this too.
    mark = (stepper.site_counter, stepper._replay_at_site,
            len(stepper.probes))

    def warm_trial():
        rep.rewind()
        stepper.rk_sites = AES_PREFIX_RK_SITES
        stepper.site_counter, stepper._replay_at_site = mark[0], mark[1]
        stepper.done = False
        del stepper.probes[mark[2]:]
        rep.machine.run(60_000_000, until=lambda _m: stepper.done)
        return _probe_data(stepper)

    return warm_trial


def _fig10_result_data(result):
    """Everything Fig. 10 measures (cycles excluded: a warm trial's
    run() starts mid-simulation, so its relative cycle count differs
    while every measured value is identical)."""
    return (result.secret, result.samples, result.threshold,
            result.above_threshold, result.replays, result.verdict)


def run_fig10_cold(attack: PortContentionAttack, secret: int,
                   threshold: float):
    """One cold Fig. 10 panel: fresh platform, full measurement run."""
    clear_cache()
    return _fig10_result_data(attack.run(secret, threshold))


def make_fig10_window_replayer(attack: PortContentionAttack,
                               secret: int, threshold: float,
                               prefix_fraction: float = 0.85):
    """Checkpoint a Fig. 10 panel *prefix_fraction* of the way through
    the Monitor's trace; each warm trial rewinds and measures the
    remaining samples (identical to the cold run's tail)."""
    clear_cache()
    # Reference run fixes the measured data and the Monitor's total
    # retired-instruction count, so the checkpoint lands at a
    # deterministic mid-run point.
    rep, recipe, monitor_proc, monitor, monitor_ctx = \
        attack.prepare(secret)
    reference = attack.finish(rep, recipe, monitor_proc, monitor,
                              monitor_ctx, secret, threshold)
    target = int(prefix_fraction * monitor_ctx.stats.retired)

    rep, recipe, monitor_proc, monitor, monitor_ctx = \
        attack.prepare(secret)
    rep.machine.run(
        attack.max_cycles,
        until=lambda _m: monitor_ctx.stats.retired >= target)
    rep.checkpoint()

    def warm_trial():
        rep.rewind()
        return _fig10_result_data(attack.finish(
            rep, recipe, monitor_proc, monitor, monitor_ctx, secret,
            threshold))

    return warm_trial, _fig10_result_data(reference)
