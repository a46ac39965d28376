"""CI throughput smoke check.

Measures simulated-cycles/host-second on the replay-attack workload
(run by ``Machine.run``, which skips provably-empty cycles) and on
the single-context spin loop, then compares against the committed
baseline in ``benchmarks/results/simulator_throughput.json``.  Exits
non-zero when either rate regresses by more than the allowed factor
(default 2x — CI runners are noisy; the gate is for cliffs, not
percent drift).

Also runs a snapshot round-trip smoke: take a mid-run snapshot of the
replay-attack workload, run to completion, mutate nothing further,
restore, run again, and require the metrics payload to be identical.
This is the functional contract the warm-start experiment drivers
depend on, checked on every CI run in a few hundred milliseconds.

Finally, a tracing overhead check: the replay-attack workload runs
once with no tracer (the configuration the regression gate prices)
and once with an ``EventTracer`` attached.  Both runs must produce a
bit-identical metrics payload — tracing observes, it never perturbs —
and the measured overhead is written to
``benchmarks/results/tracing_overhead.json`` so its trajectory is
visible across PRs.  Only the off-vs-baseline comparison gates;
tracing-on cost is reported, not gated.

A memoization check covers the ``repro.memo`` trial store: an
evaluation matrix served from a warm :class:`~repro.memo.TrialStore`
must be bit-identical to its cold run *and* at least 5x faster; the
measured numbers are written to
``benchmarks/results/memoization_throughput.json``.

Usage::

    PYTHONPATH=src python benchmarks/ci_throughput_smoke.py \
        [--baseline benchmarks/results/simulator_throughput.json] \
        [--max-regression 2.0]
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from throughput_workloads import run_replay_attack, run_spin, timed  # noqa: E402

#: Baseline keys checked, mapped to a measurement callable.
CHECKS = {
    "replay_attack_fast_forward":
        lambda: timed(run_replay_attack, True, 200),
    "single_context_spin": lambda: timed(run_spin, 5000, 1),
}


def measure() -> dict:
    rates = {}
    for key, runner in CHECKS.items():
        result, host = runner()
        cycles = result[0] if isinstance(result, tuple) else result
        rates[key] = cycles / host
    return rates


def snapshot_roundtrip_smoke() -> bool:
    """Take → mutate → restore → compare on a real attack platform.

    Checkpoints a launched control-flow victim, runs the replay attack
    to completion (heavily mutating every subsystem), rewinds, runs
    again, and requires the two metrics payloads to be identical.
    Returns True on success.
    """
    from repro.core.recipes import (
        WalkLocation, WalkTuning, replay_n_times)
    from repro.core.replayer import AttackEnvironment, Replayer
    from repro.reporting import metrics_payload
    from repro.victims.control_flow import setup_control_flow_victim

    rep = Replayer(AttackEnvironment.build())
    proc = rep.create_victim_process("victim")
    victim = setup_control_flow_victim(proc, secret=1)
    recipe = rep.module.provide_replay_handle(
        proc, victim.handle_va + 0x20, name="smoke-replay",
        attack_function=replay_n_times(20),
        walk_tuning=WalkTuning(upper=WalkLocation.PWC,
                               leaf=WalkLocation.DRAM))
    rep.launch_victim(proc, victim.program)
    rep.arm(recipe)
    rep.checkpoint()

    def run_to_done() -> dict:
        rep.run_until_victim_done(context_id=0, max_cycles=10_000_000)
        return metrics_payload(rep.machine)

    first = run_to_done()
    rep.rewind()
    second = run_to_done()
    if second != first:
        print("snapshot round-trip: FAIL (metrics diverged after rewind)")
        return False
    if first["metrics"]["cpu.ctx0.retired"] == 0:
        print("snapshot round-trip: FAIL (workload retired nothing)")
        return False
    print("snapshot round-trip: OK (rewound run is bit-identical)")
    return True


def tracing_overhead_check() -> bool:
    """Price tracing and prove it is purely observational.

    Runs the replay-attack workload tracing-off and tracing-on,
    requires bit-identical metrics payloads (and a non-empty trace),
    and persists both rates plus the slowdown factor as a JSON
    artifact.  Returns True on success.
    """
    from repro.observability import EventTracer

    (result_off, host_off) = timed(run_replay_attack, True, 200)
    tracer = EventTracer(capacity=1 << 15)
    (result_on, host_on) = timed(run_replay_attack, True, 200, tracer)
    cycles_off, report_off = result_off
    cycles_on, report_on = result_on

    ok = True
    if cycles_off != cycles_on or report_off != report_on:
        print("tracing overhead: FAIL (tracing perturbed the "
              "simulation results)")
        ok = False
    if tracer.total_emitted == 0:
        print("tracing overhead: FAIL (tracer attached but captured "
              "no events)")
        ok = False

    rate_off = cycles_off / host_off
    rate_on = cycles_on / host_on
    slowdown = rate_off / rate_on if rate_on else float("inf")
    payload = {
        "workload": "replay_attack_fast_forward",
        "cycles": cycles_off,
        "tracing_off_cycles_per_host_second": rate_off,
        "tracing_on_cycles_per_host_second": rate_on,
        "tracing_slowdown_factor": slowdown,
        "events_emitted": tracer.total_emitted,
        "events_dropped": tracer.dropped,
        "bit_identical": ok,
    }
    out = Path(__file__).parent / "results" / "tracing_overhead.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if ok:
        print(f"tracing overhead: OK ({slowdown:.2f}x slowdown with "
              f"{tracer.total_emitted} events; results bit-identical)")
    return ok


def memoization_check(min_store_speedup: float = 5.0) -> bool:
    """Prove the trial store is sound and actually fast.

    A small evaluation matrix runs cold into a fresh ``TrialStore``
    and then warm; the sorted-JSON serialization must be
    byte-identical and the warm run at least *min_store_speedup*
    faster.  Measurements land in
    ``benchmarks/results/memoization_throughput.json``.  Returns True
    on success.
    """
    import tempfile
    import time

    from repro.evaluation import MatrixRunner
    from repro.memo import TrialStore

    ok = True

    overrides = {"port-contention": {"measurements": 200,
                                     "calibrate_samples": 200}}
    with tempfile.TemporaryDirectory() as cache_dir:
        store = TrialStore(cache_dir)

        def run_matrix():
            return MatrixRunner(attacks=("port-contention",),
                                defenses=("none", "fences"),
                                overrides=overrides, workers=1,
                                store=store,
                                label="memo-smoke-matrix").run()

        t0 = time.perf_counter()
        cold_matrix = run_matrix()
        store_cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm_matrix = run_matrix()
        store_warm_s = time.perf_counter() - t0
    store_speedup = store_cold_s / max(store_warm_s, 1e-9)
    as_bytes = lambda m: json.dumps(  # noqa: E731
        m.to_dict(), indent=2, sort_keys=True)
    store_identical = (as_bytes(warm_matrix) == as_bytes(cold_matrix)
                       and store.counts()["hits"] == 2)
    if not store_identical:
        print("memoization: FAIL (warm matrix diverged from cold run)")
        ok = False
    elif store_speedup < min_store_speedup:
        print(f"memoization: FAIL (warm store only "
              f"{store_speedup:.1f}x faster; need "
              f">={min_store_speedup:.1f}x)")
        ok = False

    payload = {
        "trial_store": {
            "workload": "1x2 evaluation matrix, port-contention",
            "cold_seconds": store_cold_s,
            "warm_seconds": store_warm_s,
            "speedup": store_speedup,
            "min_speedup": min_store_speedup,
            "bit_identical": store_identical,
        },
    }
    out = Path(__file__).parent / "results" / "memoization_throughput.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if ok:
        print(f"memoization: OK (warm store {store_speedup:.1f}x; "
              f"bit-identical)")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline",
        default=str(Path(__file__).parent / "results"
                    / "simulator_throughput.json"))
    parser.add_argument("--max-regression", type=float, default=2.0)
    args = parser.parse_args(argv)

    failed = not snapshot_roundtrip_smoke()
    failed = not tracing_overhead_check() or failed
    failed = not memoization_check() or failed

    baseline_path = Path(args.baseline)
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; nothing to compare")
        return 1 if failed else 0
    baseline = json.loads(baseline_path.read_text())
    baseline_rates = baseline.get("cycles_per_host_second", {})

    rates = measure()
    for key, rate in rates.items():
        reference = baseline_rates.get(key)
        if not reference:
            print(f"{key}: {rate:,.0f} c/s (no baseline entry; skipped)")
            continue
        ratio = reference / rate
        status = "OK"
        if ratio > args.max_regression:
            status = f"FAIL (>{args.max_regression:.1f}x regression)"
            failed = True
        print(f"{key}: {rate:,.0f} c/s vs baseline {reference:,.0f} "
              f"({ratio:.2f}x slower) {status}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
