"""Nightly differential sweep: the OOO core vs the golden model.

CounterPoint-style continuous differential testing, scaled past what
the tier-1 Hypothesis suite (``tests/cpu/test_differential.py``) can
afford per-PR: generate *cases* seeded random programs, execute each
on both the out-of-order :class:`~repro.cpu.machine.Machine` and the
sequential :mod:`repro.isa.interpreter` golden model, and require
final integer/FP register state and memory to agree.  Each case also
checks counter contracts on the core, each against a count kept
elsewhere, so a scheduler shortcut that drops or duplicates an event
breaks one even when the architectural state still matches:

* the execution ports' ``issued`` counts sum to the contexts'
  ``stats.issued`` (every issue path, loads, stores and ALU ops, goes
  through both counters);
* the core's ``stats.retired`` equals the golden model's retired
  instruction count;
* per context, ``stats.fetched == stats.retired + stats.squashed``:
  once the program finishes, every decoded entry has left the ROB
  exactly one way;
* the program run again with naive ``Machine.step()``, one cycle at a
  time, ends on the same cycle with the same context stats, port
  ``issued``/``contended`` counts and ``metrics.dump()``: the
  scheduler's skipped and front-end-only cycles must be exact.

The sweep runs through :func:`repro.harness.run_resilient_sweep`, so
it journals every completed case (``journal.jsonl``) and produces the
standard :class:`~repro.harness.SweepReport` accounting — both are
uploaded as artifacts by the nightly workflow, and an interrupted
sweep resumes from its journal with nothing rerun.

Each case's program is a pure function of its harness-derived seed
(init + bounded loop + data-dependent branches + straight-line tail,
the same shape the Hypothesis generator draws), so any mismatch is
reproducible from the case index alone::

    python -m repro.tools.diffsweep --cases 200 --out-dir /tmp/diff
    python -m repro.tools.diffsweep --case 137   # re-run one case

Exit status: 0 when every case matches, 1 otherwise (mismatching
cases are listed in ``diffsweep.json`` with their seeds).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

#: Default number of cases the nightly sweep runs.
DEFAULT_CASES = 150

#: Sweep label (part of the seed lineage).
LABEL = "diffsweep"

#: Master seed of the nightly sweep.  The *date* is deliberately not
#: mixed in — a nightly failure must reproduce exactly from the case
#: index any day after.
DEFAULT_MASTER_SEED = 2019

#: Identity-mapped data page inside the default 256 MiB of DRAM.
DATA_BASE = 0x0010_0000

#: Cycle budget of each run of a case.
MAX_CYCLES = 3_000_000

_DATA_REGS = [f"r{i}" for i in range(2, 12)]
_FP_REGS = [f"f{i}" for i in range(0, 8)]
_OFFSETS = [0, 8, 16, 24, 32, 64, 128]


def _block(rng: random.Random, builder, max_len: int) -> None:
    """Emit a dependency-rich straight-line block."""
    from repro.isa import instructions as ins
    for _ in range(rng.randint(1, max_len)):
        kind = rng.choice(
            ["alu", "alui", "mul", "div", "fp", "load", "store",
             "fload", "fstore"])
        rd, rs1, rs2 = (rng.choice(_DATA_REGS) for _ in range(3))
        fd, fs1, fs2 = (rng.choice(_FP_REGS) for _ in range(3))
        offset = rng.choice(_OFFSETS)
        if kind == "alu":
            ctor = rng.choice([ins.add, ins.sub, ins.xor,
                               ins.and_, ins.or_])
            builder.emit(ctor(rd, rs1, rs2))
        elif kind == "alui":
            ctor = rng.choice([ins.addi, ins.subi, ins.xori])
            builder.emit(ctor(rd, rs1, rng.randint(0, 1 << 16)))
        elif kind == "mul":
            builder.emit(ins.mul(rd, rs1, rs2))
        elif kind == "div":
            builder.emit(ins.div(rd, rs1, rs2))
        elif kind == "fp":
            ctor = rng.choice([ins.fadd, ins.fmul, ins.fsub])
            builder.emit(ctor(fd, fs1, fs2))
        elif kind == "load":
            builder.emit(ins.load(rd, "r1", offset))
        elif kind == "store":
            builder.emit(ins.store("r1", rs1, offset))
        elif kind == "fload":
            builder.emit(ins.fload(fd, "r1", offset))
        else:
            builder.emit(ins.fstore("r1", fs1, offset))


def generate_program(seed: int):
    """One terminating-by-construction random program, a pure
    function of *seed*."""
    from repro.isa.program import ProgramBuilder
    rng = random.Random(seed)
    builder = ProgramBuilder(f"diffsweep-{seed}")
    builder.li("r1", DATA_BASE)
    for reg in _DATA_REGS:
        builder.li(reg, rng.randint(0, 1 << 20))
    for reg in _FP_REGS:
        builder.fli(reg, round(rng.uniform(-1e6, 1e6), 3))
    builder.li("r0", rng.randint(1, 6))
    builder.label("loop")
    _block(rng, builder, max_len=14)
    if rng.random() < 0.5:
        builder.beq(rng.choice(_DATA_REGS), rng.choice(_DATA_REGS),
                    "skip")
        _block(rng, builder, max_len=4)
        builder.label("skip")
    builder.subi("r0", "r0", 1)
    builder.li("r13", 0)
    builder.bne("r0", "r13", "loop")
    _block(rng, builder, max_len=6)
    builder.halt()
    return builder.build()


def _fp_equal(x: Any, y: Any) -> bool:
    if isinstance(x, float) and isinstance(y, float):
        if math.isnan(x) and math.isnan(y):
            return True
        return x == y
    return x == y


def _scheduler_view(machine) -> Dict[str, Any]:
    """What a scheduler shortcut must leave exactly as naive stepping
    does, by field."""
    return {
        "cycle": machine.cycle,
        "context stats": [ctx.stats.as_dict()
                          for ctx in machine.contexts],
        "ports": machine.core.ports.contention_report(),
        "metrics": machine.metrics.dump(),
    }


def _step_naively(program, max_cycles: int):
    """*program* on a fresh machine, one ``Machine.step()`` per cycle
    while the core is busy."""
    from repro.cpu.machine import Machine
    machine = Machine()
    machine.contexts[0].load_program(program)
    core = machine.core
    while machine.cycle < max_cycles and core.busy():
        machine.step()
    return machine


def run_case(params: Any, seed: int) -> Dict[str, Any]:
    """One differential case: both engines, compared field by field.

    The harness trial function — *seed* drives the program generator,
    so the journal's seed-lineage checks also pin the program.  With
    ``params["oracle"]`` set the core runs under an active (but
    unseeded) :class:`~repro.oracle.TaintOracle`: no secrets are ever
    registered, so any leakage event — or any architectural deviation
    from the golden model — is an oracle bug.
    """
    import contextlib

    from repro.cpu.machine import Machine
    from repro.isa.interpreter import run_program as interpret
    program = generate_program(seed)
    reference = interpret(program)
    oracle = None
    scope = contextlib.nullcontext()
    if params.get("oracle"):
        from repro.oracle import TaintOracle, activate
        oracle = TaintOracle()
        scope = activate(oracle)
    with scope:
        machine = Machine()
        context = machine.contexts[0]
        context.load_program(program)
        machine.run(MAX_CYCLES)
        naive = _step_naively(program, MAX_CYCLES)
    mismatches: List[str] = []
    naive_view = _scheduler_view(naive)
    for field, value in _scheduler_view(machine).items():
        if value != naive_view[field]:
            mismatches.append(f"{field} mismatch against naive stepping")
    if oracle is not None and oracle.summary.total:
        mismatches.append(
            f"oracle raised {oracle.summary.total} events with no "
            f"secrets registered")
    if not context.finished():
        mismatches.append("core did not finish the program")
    for reg, value in reference.int_regs.items():
        if context.int_regs[reg] != value:
            mismatches.append(f"int {reg}")
    for reg, value in reference.fp_regs.items():
        if not _fp_equal(context.fp_regs[reg], value):
            mismatches.append(f"fp {reg}")
    for addr, value in reference.memory.items():
        core = machine.phys.read(addr)
        if not _fp_equal(core or 0, value or 0):
            mismatches.append(f"mem {addr:#x}")
    port_issues = sum(issued for issued, _contended
                      in machine.core.ports.contention_report().values())
    context_issues = sum(ctx.stats.issued for ctx in machine.contexts)
    if port_issues != context_issues:
        mismatches.append(f"port issues {port_issues} != context "
                          f"issues {context_issues}")
    if context.stats.retired != reference.retired:
        mismatches.append(f"retired {context.stats.retired} != golden "
                          f"model retired {reference.retired}")
    for ctx in machine.contexts:
        stats = ctx.stats
        if stats.fetched != stats.retired + stats.squashed:
            mismatches.append(
                f"ctx{ctx.context_id} fetched {stats.fetched} != "
                f"retired {stats.retired} + squashed {stats.squashed}")
    return {
        "case": params["case"],
        "instructions": len(program.instructions),
        "match": not mismatches,
        "mismatches": mismatches,
        "retired": context.stats.retired,
        "seed": seed,
    }


def run_sweep(cases: int, *, master_seed: int = DEFAULT_MASTER_SEED,
              out_dir: Optional[Path] = None,
              workers: Optional[int] = None,
              oracle: bool = False) -> Dict[str, Any]:
    """The full differential sweep; returns the summary payload.

    With ``oracle=True`` every case runs under an active, unseeded
    taint oracle — a continuous soundness control proving the oracle
    machinery neither perturbs execution nor raises events without a
    taint source.
    """
    from repro.harness import FaultPolicy, run_resilient_sweep
    from repro.observability.registry import MetricsRegistry
    journal = None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        journal = out_dir / "journal.jsonl"
    registry = MetricsRegistry()
    sweep = run_resilient_sweep(
        run_case,
        [{"case": i, "oracle": oracle} for i in range(cases)],
        master_seed=master_seed, label=LABEL, workers=workers,
        policy=FaultPolicy(max_attempts=2, backoff_base=0.0),
        journal=journal, metrics=registry)
    results = sweep.results()
    failures = [r for r in results if not r["match"]]
    summary = {
        "cases": cases,
        "oracle": oracle,
        "failures": [{"case": r["case"], "seed": r["seed"],
                      "mismatches": r["mismatches"]}
                     for r in failures],
        "label": LABEL,
        "master_seed": master_seed,
        "matched": len(results) - len(failures),
        "metrics": registry.dump(),
        "report": sweep.report.to_dict() if sweep.report else None,
        "retired_total": sum(r["retired"] for r in results),
    }
    if out_dir is not None:
        (out_dir / "diffsweep.json").write_text(
            json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return summary


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (``python -m repro.tools.diffsweep``)."""
    parser = argparse.ArgumentParser(
        description="differential sweep: OOO core vs golden model")
    parser.add_argument("--cases", type=int, default=DEFAULT_CASES)
    parser.add_argument("--master-seed", type=int,
                        default=DEFAULT_MASTER_SEED)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--out-dir", default=None,
                        help="directory for journal.jsonl + "
                             "diffsweep.json artifacts")
    parser.add_argument("--case", type=int, default=None,
                        help="re-run one case by index and print its "
                             "payload")
    parser.add_argument("--oracle", action="store_true",
                        help="run every case under an active, "
                             "unseeded taint oracle (soundness "
                             "control: zero events expected)")
    args = parser.parse_args(argv)
    if args.case is not None:
        from repro.harness import derive_seed
        payload = run_case(
            {"case": args.case, "oracle": args.oracle},
            derive_seed(args.master_seed, args.case, LABEL))
        print(json.dumps(payload, sort_keys=True, indent=2))
        return 0 if payload["match"] else 1
    out_dir = Path(args.out_dir) if args.out_dir else None
    summary = run_sweep(args.cases, master_seed=args.master_seed,
                        out_dir=out_dir, workers=args.workers,
                        oracle=args.oracle)
    print(f"diffsweep: {summary['matched']}/{summary['cases']} "
          f"cases matched, {summary['retired_total']} instructions "
          f"retired")
    for failure in summary["failures"]:
        print(f"  MISMATCH case {failure['case']} "
              f"(seed {failure['seed']}): "
              f"{', '.join(failure['mismatches'])}")
    return 0 if not summary["failures"] else 1


if __name__ == "__main__":
    sys.exit(main())
