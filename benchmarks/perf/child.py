"""One perf-ledger run inside a fresh process.

``run.py`` starts this script once per measured run, so the warm-start
snapshot cache and import caches never leak from one run into the
next.  It prints one JSON object on its last line of standard output.

Modes:

* ``unit`` (default): set up, run the workload once, check the
  outputs.  The timed region is the set of intervals the workload
  wraps in ``measure()``: the whole call, or each matrix-warm pass.
  With ``--trace 1`` the simulator's layers are wrapped (see
  ``layers.py``) and the per-layer numbers are included; otherwise only
  ``Machine.run`` is wrapped, to sum simulated cycles and, on a
  simulating workload, to time stretches of them (``Sampler``; it is
  called a few hundred times per run at most).
* ``setup``: stop where the timed region would start; reports set-up
  time only.

Both modes also time a fixed reference loop -- right after set-up,
and every 100 ms of the timed region -- and report the fastest tenth
of those times, the host's speed at the moment, for ``run.py`` to
scale by.
* ``populate``: fill matrix-warm's trial store (untimed preparation).

Set-up time runs from ``--spawned-at``, the parent's
``time.monotonic()`` just before it started this process, to the start
of the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import signal
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

import layers
import ledger

#: Reference loops timed right after set-up; the fastest tenth of them
#: is the host speed set-up time is scaled by.
SETUP_REFERENCE_LOOPS = 20


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024 * 1024 if sys.platform == "darwin" else 1024)


def reference_loop() -> int:
    """A fixed piece of pure-Python work (dict updates and integer
    arithmetic, about 0.25 ms on a 2.1 GHz x86 core).  It never changes
    with the simulator, so timing it next to a workload measures how
    fast the host runs Python at that moment."""
    total = 0
    table: Dict[int, int] = {}
    for i in range(2000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        total += i * i % 7
    return total


def time_reference(times: int) -> List[float]:
    """Seconds taken by each of *times* back-to-back reference loops."""
    out = []
    for _ in range(times):
        start = time.perf_counter()
        reference_loop()
        out.append(time.perf_counter() - start)
    return out


class Sampler:
    """Host time per stretch of simulated cycles, and host speed,
    sampled on a timer while the timed region runs.

    ``Machine.run`` is wrapped (a few hundred calls per run at most) to
    know which machine is stepping and from which cycle; a SIGALRM
    every ``INTERVAL_S`` of wall time reads how many cycles have been
    simulated so far.  Each window between two readings that simulated
    anything yields one sample, host seconds per ``CYCLES`` cycles, so a
    run gives hundreds of samples and a low percentile of them shrugs
    off bursts of host contention.  Every ``REFERENCE_EVERY``-th signal
    also times :func:`reference_loop`; that time is left out of the
    windows and of the measured intervals, and ``run.py`` divides by it
    to take out contention that lasts the whole run.
    """

    INTERVAL_S = 0.025
    CYCLES = 10_000
    REFERENCE_EVERY = 4

    def __init__(self) -> None:
        # (cycles of finished runs, stepping machine, its start cycle),
        # replaced as one tuple so the handler never sees half an update.
        self.mark: Tuple[int, Any, int] = (0, None, 0)
        self.readings: List[Tuple[float, int]] = []
        self.reference_s: List[float] = []
        #: Seconds spent in the reference loop so far.
        self.reference_spent = 0.0
        self.attached = False
        self._ticks = 0

    def install(self) -> None:
        try:
            owner, attr, run = layers.resolve(
                "repro.cpu.machine:Machine.run")
        except (ImportError, AttributeError):
            return

        def wrapper(machine, *args, **kwargs):
            done = self.mark[0]
            self.mark = (done, machine, machine.cycle)
            try:
                cycles = run(machine, *args, **kwargs)
            finally:
                self.mark = (done + machine.cycle - self.mark[2], None, 0)
            return cycles

        setattr(owner, attr, wrapper)
        self.attached = True

    def _read(self, *_args: Any) -> None:
        done, machine, start = self.mark
        cycles = done + (machine.cycle - start if machine is not None else 0)
        self.readings.append((time.perf_counter(), cycles))
        self._ticks += 1
        if self._ticks % self.REFERENCE_EVERY == 0:
            took = time_reference(1)[0]
            self.reference_s.append(took)
            self.reference_spent += took
            # The next window starts after the reference loop.
            self.readings.append((time.perf_counter(), cycles))

    @contextlib.contextmanager
    def sampling(self) -> Iterator[None]:
        previous = signal.signal(signal.SIGALRM, self._read)
        self._read()
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S,
                         self.INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._read()

    def op_seconds(self) -> List[float]:
        """Host seconds per ``CYCLES`` simulated cycles, one per window
        that simulated any."""
        pairs = zip(self.readings, self.readings[1:])
        return [(t1 - t0) * self.CYCLES / (c1 - c0)
                for (t0, c0), (t1, c1) in pairs if c1 > c0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--mode", choices=("unit", "setup", "populate"),
                        default="unit")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--store", default=None,
                        help="trial store directory (matrix workloads)")
    parser.add_argument("--spans", default=None,
                        help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import workloads
    import_s = time.perf_counter() - start
    from repro.observability import collect_machines, merge_dumps

    if args.mode == "populate":
        print(json.dumps({"digest": workloads.populate(args.seed,
                                                       args.store)}))
        return 0

    workload = workloads.WORKLOADS[args.workload]
    state = workload.setup(args.seed, args.store)
    tracer = layers.LayerTracer()
    layers.install(tracer, only=None if args.trace else ("cpu.machine.run",))
    # The traced run measures layers, not speed: no sampler.
    sampler = None if args.trace else Sampler()
    if sampler is not None and workload.simulates:
        sampler.install()
    intervals: List[float] = []

    @contextlib.contextmanager
    def measure() -> Iterator[None]:
        tracer.begin()
        spent = sampler.reference_spent if sampler is not None else 0.0
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            if sampler is not None:
                elapsed -= sampler.reference_spent - spent
            intervals.append(elapsed)
            tracer.end()

    with contextlib.ExitStack() as stack:
        # The traced run sums every machine's registry at the end.
        machines = (stack.enter_context(collect_machines())
                    if args.trace else None)
        setup_s = time.monotonic() - args.spawned_at
        # Host speed right after set-up, to scale set-up time by.
        setup_reference_s = ledger.percentile(
            time_reference(SETUP_REFERENCE_LOOPS), 10)
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s, "import_s": import_s,
                              "setup_reference_s": setup_reference_s}))
            return 0
        if sampler is not None:
            stack.enter_context(sampler.sampling())
        output = workload.run(state, measure)
    outcome = workload.check(state, output, intervals)
    run_s = sum(intervals)
    op_s = list(intervals)
    if sampler is not None and workload.simulates:
        op_s = sampler.op_seconds()
        if not op_s:
            outcome.failures.append(
                "no simulated-cycle samples" if sampler.attached
                else "Machine.run not found: no simulated-cycle samples")
            op_s = list(intervals)
    reference_s = setup_reference_s
    if sampler is not None and sampler.reference_s:
        reference_s = ledger.percentile(sampler.reference_s, 10)

    record: Dict[str, Any] = {
        "setup_s": setup_s, "import_s": import_s,
        "setup_reference_s": setup_reference_s, "run_s": run_s,
        "op_s": op_s, "reference_s": reference_s,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": outcome.attempted, "failures": outcome.failures,
        "digest": outcome.digest,
        "sim_cycles": tracer.tallies.get("cpu.sim_cycles", 0),
    }
    if args.trace:
        registry = merge_dumps([m.metrics.dump() for m in machines]) \
            if machines else None
        metrics, absent = layers.layer_metrics(tracer, run_s, registry)
        metrics["process.import_s"] = import_s
        record.update(layers=metrics, absent=absent)
        if args.spans:
            path = Path(args.spans)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(tracer.span_records()) + "\n",
                            encoding="utf-8")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
