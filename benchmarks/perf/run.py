"""The perf ledger: end-to-end and per-layer numbers for the workloads.

Usage (from the repository root)::

    python benchmarks/perf/run.py [--workloads W ...] [--seed N]
                                  [--repeats K] [--out PATH]
    python benchmarks/perf/run.py --workload W --seed N --seconds S
                                  --trace {0,1}
    python benchmarks/perf/run.py compare A.json B.json

The first form writes a ledger: every workload (those of
``BENCHMARK.json`` and ``ledger.LEDGER_ONLY_WORKLOADS``) runs K times
untraced, each run a fresh sequential subprocess (``child.py``), then
once more traced for the per-layer numbers.  Every metric is printed as
``workload metric value unit`` with its median, quartiles and n, and
the same data is written as JSON to ``--out``.

The second form measures one workload for about ``--seconds`` seconds
and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.

``compare`` prints the medians, quartiles and deltas of two ledgers
against the bounds in ``BENCHMARK.json`` and exits 1 on an end-to-end
regression only.

Runs are strictly sequential and single-threaded.  Scratch state (trial
stores, span files) lives under ``.bench_build/perf`` at the repository
root; ``src/`` is put on the children's ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import ledger
from layers import unit_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "perf"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 2019
DEFAULT_REPEATS = 3
#: Set-up-only runs after each measured run, so the set-up median has
#: samples from the whole measurement, not one stretch of it.
SETUP_PROBES = 2
#: Percentiles of operation time recorded as ``op_ms_p<q>``.
OP_PERCENTILES = (10, 50, 90)
#: Measured runs a time-boxed measurement makes even past its time: a
#: run slowed throughout by host contention is then pooled with
#: another, which often is not.
MIN_UNITS = 2
#: No single child may run longer (the slowest, a traced matrix-cold,
#: takes about 50 s on a 2-core x86 host).
CHILD_TIMEOUT_S = 170.0
#: The fastest tenth of ``child.reference_loop`` times on the host the
#: ledger was built on (2-vCPU x86 VM at 2.1 GHz, when quiet).  Set-up
#: and operation times are multiplied by this over the reference time
#: the child measured next to them, so they read as seconds on that host
#: at its quietest: other tenants' load, which slows the reference as
#: much as the simulator, largely cancels (README.md, "Noise").
REFERENCE_NOMINAL_S = 250e-6


class BenchmarkError(RuntimeError):
    """A child failed to run or printed no result."""


def child(workload: str, seed: int, *, mode: str = "unit",
          trace: bool = False, store: Optional[Path] = None,
          spans: Optional[Path] = None) -> Dict[str, Any]:
    """Run ``child.py`` in a fresh interpreter and parse its result.
    ``wall_s`` (spawn to exit) is added for time-boxing."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # Cache bytecode as an installed package would, so set-up time is
    # import time, not compile time (the warm-up child writes the cache).
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    argv = [sys.executable, str(HERE / "child.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode,
            "--trace", str(int(trace))]
    if store is not None:
        argv += ["--store", str(store)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    spawned = time.monotonic()
    try:
        done = subprocess.run(argv + ["--spawned-at", repr(spawned)],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} {mode} run exceeded "
                             f"{CHILD_TIMEOUT_S:.0f} s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} {mode} run exited "
                             f"{done.returncode}")
    record = json.loads(lines[-1])
    record["wall_s"] = time.monotonic() - spawned
    return record


def source_digest() -> str:
    """Digest of the simulator's sources: names the persistent
    matrix-warm store, so a store is never reused across code versions."""
    sha = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        sha.update(str(path.relative_to(src)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def scaled_setup(record: Dict[str, Any]) -> float:
    """A child's set-up time at the reference host speed."""
    return (record["setup_s"] * REFERENCE_NOMINAL_S
            / record["setup_reference_s"])


def scaled_ops(record: Dict[str, Any]) -> List[float]:
    """A child's operation times at the reference host speed."""
    scale = REFERENCE_NOMINAL_S / record["reference_s"]
    return [op * scale for op in record["op_s"]]


def fresh_dir() -> Path:
    """A new, empty directory under the scratch area."""
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(dir=BUILD / "tmp"))


def measure(workload: str, seed: int, *, repeats: Optional[int] = None,
            seconds: Optional[float] = None, traced: bool = True,
            probes: bool = True) -> Dict[str, Any]:
    """Measure one workload: untraced runs (``repeats`` of them, or as
    many as fit in ``seconds``, at least ``MIN_UNITS``), set-up probes,
    and one traced run.  Returns the workload's ledger entry."""
    store: Optional[Path] = None
    expected: Optional[str] = None
    if workload == "matrix-warm":
        # Untimed: fill the store the warm passes read.  Keyed by the
        # source digest; cells of earlier seeds stay and are reused.
        store = BUILD / f"warm-store-{source_digest()}"
        expected = child(workload, seed, mode="populate",
                         store=store)["digest"]

    def run(**kwargs: Any) -> Dict[str, Any]:
        if workload != "matrix-cold":
            return child(workload, seed, store=store, **kwargs)
        path = fresh_dir()  # matrix-cold always writes a fresh store
        try:
            return child(workload, seed, store=path, **kwargs)
        finally:
            shutil.rmtree(path, ignore_errors=True)

    units: List[Dict[str, Any]] = []
    setups: List[float] = []
    if probes:
        run(mode="setup")  # warm-up: the first start after idle is slow
    started = time.monotonic()
    while True:
        units.append(run())
        setups.append(scaled_setup(units[-1]))
        if probes:
            setups += [scaled_setup(run(mode="setup"))
                       for _ in range(SETUP_PROBES)]
        if repeats is not None:
            if len(units) >= repeats:
                break
        elif len(units) >= MIN_UNITS and (time.monotonic() - started
                                          + units[-1]["wall_s"] > seconds):
            break
    spans = None
    trace_run = None
    if traced:
        spans = BUILD / "spans" / f"{workload}-seed{seed}.json"
        trace_run = run(trace=True, spans=spans)
    return summarize_workload(workload, seed, units, setups, trace_run,
                              expected, spans)


def summarize_workload(workload: str, seed: int,
                       units: Sequence[Dict[str, Any]],
                       setups: Sequence[float],
                       trace_run: Optional[Dict[str, Any]],
                       expected: Optional[str],
                       spans: Optional[Path]) -> Dict[str, Any]:
    """Fold child records into one ledger entry, running the
    determinism and reference checks."""
    runs = list(units) + ([trace_run] if trace_run else [])
    failures: List[str] = []
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(min(len(r["failures"]), r["attempted"]) for r in runs)
    for r in runs:
        failures += r["failures"]

    outputs = {"digest": runs[0]["digest"],
               "sim_cycles": runs[0]["sim_cycles"]}
    if any({"digest": r["digest"], "sim_cycles": r["sim_cycles"]}
           != outputs for r in runs):
        failures.append("outputs or simulated cycles differ between runs "
                        "of one seed")
        failed += 1
    if expected is not None and expected != outputs["digest"]:
        failures.append("warm passes differ from the grid that filled "
                        "the store")
        failed += 1
    match = None
    if seed == DEFAULT_SEED and REFERENCE.exists():
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        if workload in reference["outputs"]:
            match = reference["outputs"][workload] == outputs
            if not match:
                failures.append("outputs differ from reference.json")
                failed += 1
    failed = min(failed, attempted)

    def per_unit(fn) -> Dict[str, Any]:
        return ledger.summarize([fn(u) for u in units])

    e2e = {
        "setup_s": ledger.summarize(list(setups)),
        "run_s": per_unit(lambda u: u["run_s"]),
        **{f"op_ms_p{q}": per_unit(
            lambda u, q=q: 1e3 * ledger.percentile(scaled_ops(u), q))
           for q in OP_PERCENTILES},
        "reference_us": per_unit(lambda u: 1e6 * u["reference_s"]),
        "peak_rss_mb": per_unit(lambda u: u["peak_rss_mb"]),
        "failed_frac": per_unit(
            lambda u: min(len(u["failures"]), u["attempted"])
            / u["attempted"]),
    }
    ops = [op for u in units for op in scaled_ops(u)]
    pooled = {f"op_ms_p{q}": 1e3 * ledger.percentile(ops, q)
              for q in OP_PERCENTILES}
    per_layer: Dict[str, Any] = {}
    if trace_run is not None:
        values = dict(trace_run["layers"])
        values["trace.overhead"] = (trace_run["run_s"]
                                    / e2e["run_s"]["median"])
        absent = set(trace_run["absent"])
        per_layer = {name: {"value": value, "unit": unit_of(name),
                            "absent": name in absent}
                     for name, value in sorted(values.items())}
    return {"end_to_end": e2e, "pooled": pooled, "ops": len(ops),
            "per_layer": per_layer,
            "attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted, "failures": failures,
            "outputs": outputs,
            "outputs_match_reference": match,
            "spans": None if spans is None
            else str(spans.relative_to(ROOT))}


# --- printing ---------------------------------------------------------------


def print_entry(workload: str, entry: Dict[str, Any],
                benchmark: Dict[str, Any]) -> None:
    e2e = ledger.end_to_end(benchmark)
    for name, s in entry["end_to_end"].items():
        print(f"{workload} {name} {ledger.fmt(s['median'])} "
              f"{e2e[name]['unit']} "
              f"(median, q1 {ledger.fmt(s['q1'])}, q3 {ledger.fmt(s['q3'])}, "
              f"n {s['n']})")
    for name, value in entry["pooled"].items():
        print(f"{workload} {name} {ledger.fmt(value)} {e2e[name]['unit']} "
              f"(all runs pooled, n {entry['ops']})")
    for name, m in entry["per_layer"].items():
        if m["absent"]:
            print(f"{workload} {name} absent {m['unit']}")
            continue
        value = "n/a" if m["value"] is None else ledger.fmt(m["value"])
        print(f"{workload} {name} {value} {m['unit']} (traced, n 1)")
    match = entry["outputs_match_reference"]
    print(f"{workload} checks: {entry['attempted']} attempted, "
          f"{entry['failed']} failed; outputs_match_reference "
          f"{'n/a' if match is None else str(match).lower()}")
    for failure in entry["failures"]:
        print(f"{workload} FAILED: {failure}")


def result_line(entry: Dict[str, Any], benchmark: Dict[str, Any],
                  trace: bool) -> Dict[str, Any]:
    """The last line of a single-workload run.  Operation percentiles
    are taken over the operations of all its runs pooled, so one run
    slowed throughout by host contention barely moves them; the other
    end-to-end metrics are medians over its runs."""
    if trace:
        metrics = {m["name"]: {"value": entry["per_layer"][m["name"]]
                               ["value"] or 0, "unit": m["unit"]}
                   for m in benchmark["per_layer"]}
    else:
        metrics = {m["name"]: {"value": entry["pooled"].get(
                                   m["name"],
                                   entry["end_to_end"][m["name"]]["median"]),
                               "unit": m["unit"]}
                   for m in benchmark["end_to_end"]}
    return {"correct": entry["failed"] == 0,
            "attempted": entry["attempted"], "failed": entry["failed"],
            "metrics": metrics}


# --- entry points -----------------------------------------------------------


def main_compare(argv: Sequence[str], benchmark: Dict[str, Any]) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py compare",
        description="compare two ledgers against BENCHMARK.json bounds")
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    base, new = (json.loads(Path(p).read_text(encoding="utf-8"))
                 for p in (args.base, args.new))
    rows = ledger.compare(base, new, benchmark)
    for line in ledger.format_compare(rows):
        print(line)
    regressions = [r for r in rows if r["verdict"] == "regression"]
    unresolved = [r for r in rows if r["verdict"] == "unresolved"]
    print(f"{len(regressions)} end-to-end regressions, "
          f"{len(unresolved)} unresolved")
    return 1 if regressions else 0


def _terminate(signum: int, _frame: Any) -> None:
    # Unwinds through subprocess.run, which kills and reaps the child.
    raise SystemExit(128 + signum)


def main(argv: Optional[Sequence[str]] = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    argv = list(sys.argv[1:] if argv is None else argv)
    benchmark = ledger.load_benchmark(ROOT)
    if argv[:1] == ["compare"]:
        return main_compare(argv[1:], benchmark)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = ledger.workloads(benchmark)
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=names,
                        default=names)
    parser.add_argument("--workload", choices=names,
                        help="measure one workload for --seconds and "
                             "print one JSON result line")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        default=BUILD / "ledger.json")
    args = parser.parse_args(argv)

    try:
        if args.workload is not None:
            trace = bool(args.trace)
            entry = measure(args.workload, args.seed,
                            repeats=1 if trace else None,
                            seconds=args.seconds, traced=trace,
                            probes=not trace)
            print_entry(args.workload, entry, benchmark)
            print(json.dumps(result_line(entry, benchmark, trace)))
            return 0
        entries = {}
        for name in args.workloads:
            entries[name] = measure(name, args.seed,
                                    repeats=args.repeats)
            print_entry(name, entries[name], benchmark)
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    payload = {"schema": ledger.LEDGER_SCHEMA, "seed": args.seed,
               "repeats": args.repeats,
               "host": {"cpus": os.cpu_count(),
                        "machine": platform.machine(),
                        "python": platform.python_version()},
               "workloads": entries}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=1, sort_keys=True)
                        + "\n", encoding="utf-8")
    print(f"ledger written to {args.out}")
    failed = sum(e["failed"] for e in entries.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
