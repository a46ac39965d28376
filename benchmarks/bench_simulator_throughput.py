"""Simulator performance: cycles per host-second.

Not a paper result — engineering telemetry so regressions in the
cycle loop are visible in CI, and so experiment budgets in the other
benches stay predictable.

Beyond the spin loops, this bench runs the replay-attack workload
twice — an explicit one-step-per-cycle loop vs ``Machine.run``, which
skips provably-empty cycles — and asserts both that the skipping is
bit-exact (same cycles, same machine report) and that it actually pays
(>= 3x simulated-cycles/host-second).
``benchmarks/results/simulator_throughput.json`` records the numbers
machine-readably; CI diffs fresh measurements against the committed
copy and fails on a >2x regression.
"""

from repro.core.attacks.port_contention import PortContentionAttack
from repro.snapshot import clear_cache

from conftest import emit, emit_json, full_scale
from throughput_workloads import (
    make_aes_window_replayer,
    make_fig10_window_replayer,
    run_aes_window_cold,
    run_fig10_cold,
    run_replay_attack,
    run_spin,
    timed,
)


def test_single_context_throughput(benchmark):
    def run():
        return run_spin(5000, contexts=1)

    cycles = benchmark(run)
    assert cycles > 5000


def test_smt_throughput(benchmark):
    def run():
        return run_spin(5000, contexts=2)

    cycles = benchmark(run)
    assert cycles > 2500


def test_replay_attack_throughput(once):
    """The headline number: replay-attack simulation speed, naive
    per-cycle stepping vs ``Machine.run``'s fast-forward, proven
    bit-exact on the full machine report."""
    replays = 2000 if full_scale() else 200

    def experiment():
        (naive_cycles, naive_report), naive_host = timed(
            run_replay_attack, False, replays)
        (fast_cycles, fast_report), fast_host = timed(
            run_replay_attack, True, replays)
        return (naive_cycles, naive_report, naive_host,
                fast_cycles, fast_report, fast_host)

    (naive_cycles, naive_report, naive_host,
     fast_cycles, fast_report, fast_host) = once(experiment)

    # Bit-exactness: cycle count and the entire stats snapshot agree.
    assert fast_cycles == naive_cycles
    assert fast_report == naive_report

    # Spin-loop rates for the JSON artefact (single timed run each).
    spin_cycles, spin_host = timed(run_spin, 5000, 1)
    smt_cycles, smt_host = timed(run_spin, 5000, 2)

    naive_cps = naive_cycles / naive_host
    fast_cps = fast_cycles / fast_host
    speedup = fast_cps / naive_cps
    payload = {
        "scale": "full" if full_scale() else "quick",
        "replays": replays,
        "replay_simulated_cycles": naive_cycles,
        "cycles_per_host_second": {
            "single_context_spin": round(spin_cycles / spin_host),
            "smt_spin": round(smt_cycles / smt_host),
            "replay_attack_naive": round(naive_cps),
            "replay_attack_fast_forward": round(fast_cps),
        },
        "fast_forward_speedup": round(speedup, 2),
        "fast_forward_bit_exact": True,
    }
    emit_json("simulator_throughput", payload)
    emit("simulator_throughput",
         f"replay-attack workload: {naive_cycles} simulated cycles\n"
         f"naive stepping:  {naive_cps:,.0f} cycles/host-second\n"
         f"fast-forward:    {fast_cps:,.0f} cycles/host-second "
         f"({speedup:.1f}x, bit-exact)\n"
         f"spin loop:       {spin_cycles / spin_host:,.0f} "
         f"cycles/host-second (1 ctx), "
         f"{smt_cycles / smt_host:,.0f} (2 ctx)")

    assert speedup >= 3.0, (
        f"fast-forward speedup {speedup:.2f}x below the 3x floor")


def test_warm_start_window_throughput(once):
    """Warm-start vs cold-start trials/host-second (repro.snapshot).

    The unit of work is MicroScope's own: observing one replay window.
    Cold trials pay the full run from a fresh platform; warm trials
    rewind to a mid-attack checkpoint and simulate only the window.
    Every warm trial's measured data must be bit-identical to the cold
    baseline — the speedup is pure amortization, not approximation.
    """
    measurements = 2500 if full_scale() else 600
    warm_trials = 3

    def experiment():
        # AES §4.4: the fourth rk window of round 1 (checkpoint after
        # three stepped rk sites).
        aes_cold_probes, aes_cold_host = timed(run_aes_window_cold)
        aes_trial = make_aes_window_replayer()
        aes_warm_hosts = []
        for _ in range(warm_trials):
            probes, host = timed(aes_trial)
            assert probes == aes_cold_probes, \
                "AES warm window diverged from the cold run"
            aes_warm_hosts.append(host)

        # Fig. 10 div panel: final 15% of the Monitor trace
        # (checkpoint at 85% of the Monitor's retired instructions).
        attack = PortContentionAttack(measurements=measurements)
        clear_cache()
        threshold = attack.calibrate()
        fig10_cold, fig10_cold_host = timed(run_fig10_cold, attack, 1,
                                            threshold)
        fig10_trial, reference = make_fig10_window_replayer(
            attack, 1, threshold)
        assert reference == fig10_cold, \
            "Fig. 10 reference run diverged from the cold run"
        fig10_warm_hosts = []
        for _ in range(warm_trials):
            data, host = timed(fig10_trial)
            assert data == fig10_cold, \
                "Fig. 10 warm panel diverged from the cold run"
            fig10_warm_hosts.append(host)
        return (aes_cold_host, aes_warm_hosts,
                fig10_cold_host, fig10_warm_hosts)

    (aes_cold_host, aes_warm_hosts,
     fig10_cold_host, fig10_warm_hosts) = once(experiment)

    def rates(cold_host, warm_hosts):
        warm_host = sum(warm_hosts) / len(warm_hosts)
        return (1.0 / cold_host, 1.0 / warm_host,
                cold_host / warm_host)

    aes_cold, aes_warm, aes_speedup = rates(aes_cold_host,
                                            aes_warm_hosts)
    f10_cold, f10_warm, f10_speedup = rates(fig10_cold_host,
                                            fig10_warm_hosts)
    payload = {
        "scale": "full" if full_scale() else "quick",
        "fig10_measurements": measurements,
        "warm_trials_per_point": warm_trials,
        "trials_per_host_second": {
            "aes_window_cold": round(aes_cold, 2),
            "aes_window_warm": round(aes_warm, 2),
            "fig10_panel_cold": round(f10_cold, 2),
            "fig10_panel_warm": round(f10_warm, 2),
        },
        "warm_start_speedup": {
            "aes_window": round(aes_speedup, 2),
            "fig10_panel": round(f10_speedup, 2),
        },
        "bit_identical": True,
    }
    emit_json("warm_start_throughput", payload)
    emit("warm_start_throughput",
         f"AES §4.4 window:   cold {aes_cold:.2f} trials/s, warm "
         f"{aes_warm:.2f} trials/s ({aes_speedup:.1f}x, bit-identical)"
         f"\nFig. 10 panel:     cold {f10_cold:.2f} trials/s, warm "
         f"{f10_warm:.2f} trials/s ({f10_speedup:.1f}x, bit-identical)")

    assert aes_speedup >= 3.0, (
        f"AES warm-start speedup {aes_speedup:.2f}x below the 3x floor")
    assert f10_speedup >= 3.0, (
        f"Fig. 10 warm-start speedup {f10_speedup:.2f}x below the "
        f"3x floor")
