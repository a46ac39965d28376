"""Ablation (§4.1.4): denoising as a function of replay count.

"Each replay provides the adversary with a noisy sample.  By replaying
an appropriate number of times, the adversary can disambiguate the
secret from the noise."

Swept here: the Replayer releases the victim after N replays; the
Monitor's above-threshold evidence (and the SPRT confidence verdict)
is reported per N.
"""

from repro.core.analysis import ConfidenceTracker, derive_threshold
from repro.core.module import MicroScopeConfig
from repro.core.recipes import ReplayAction, ReplayDecision
from repro.core.replayer import AttackEnvironment, Replayer
from repro.cpu.config import CoreConfig
from repro.config import MachineConfig
from repro.victims.control_flow import setup_control_flow_victim
from repro.victims.monitor import setup_port_contention_monitor

from conftest import emit, render_table


def _run_with_replays(replays, secret, threshold):
    rep = Replayer(AttackEnvironment.build(
        machine_config=MachineConfig(core=CoreConfig(rdtsc_jitter=3)),
        module_config=MicroScopeConfig(fault_handler_cost=6000)))
    victim_proc = rep.create_victim_process()
    victim = setup_control_flow_victim(victim_proc, secret)
    monitor_proc = rep.create_monitor_process()
    monitor = setup_port_contention_monitor(monitor_proc, 2000, 4)

    def attack_fn(event):
        if event.replay_no >= replays:
            return ReplayDecision(ReplayAction.RELEASE)
        return ReplayDecision(ReplayAction.REPLAY)

    recipe = rep.module.provide_replay_handle(
        victim_proc, victim.handle_va + 0x20, attack_function=attack_fn)
    rep.launch_victim(victim_proc, victim.program)
    rep.launch_monitor(monitor_proc, monitor.program, context_id=1)
    rep.arm(recipe)
    monitor_ctx = rep.machine.contexts[1]
    rep.machine.run(20_000_000,
                    until=lambda _m: monitor_ctx.finished())
    samples = monitor.read_samples(monitor_proc)
    above = sum(1 for s in samples if s > threshold)
    tracker = ConfidenceTracker(rate_h0=0.0005, rate_h1=0.004)
    tracker.observe_many(s > threshold for s in samples)
    return above, tracker.verdict


def test_replay_count_sweep(once):
    def experiment():
        calibration_rep = Replayer(AttackEnvironment.build(
            machine_config=MachineConfig(
                core=CoreConfig(rdtsc_jitter=3))))
        cal_proc = calibration_rep.create_monitor_process()
        cal = setup_port_contention_monitor(cal_proc, 800, 4)
        calibration_rep.launch_monitor(cal_proc, cal.program, 1)
        calibration_rep.run_until_victim_done(context_id=1,
                                              max_cycles=5_000_000)
        threshold = derive_threshold(cal.read_samples(cal_proc))
        rows = []
        for replays in (1, 2, 4, 8, 16, 32):
            above, verdict = _run_with_replays(replays, secret=1,
                                               threshold=threshold)
            decided = {True: "div (correct)", False: "mul (WRONG)",
                       None: "undecided"}[verdict]
            rows.append([replays, above, decided])
        return threshold, rows

    threshold, rows = once(experiment)
    table = render_table(
        f"Replay-count ablation (victim = div side, threshold "
        f"{threshold:.0f} cycles, 2000 monitor samples)",
        ["replays granted", "samples above threshold",
         "SPRT verdict"],
        rows)
    table += ("\n\nmore replays -> more above-threshold evidence -> "
              "confident verdict (the §4.1.4 denoising loop)")
    emit("ablation_replay_count", table)
    evidence = [row[1] for row in rows]
    assert evidence[-1] > evidence[0]
    assert rows[-1][2].startswith("div")
