"""Per-layer host time for the perf ledger's traced run.

The tracer wraps public entry points of the simulator from outside the
program: each target is named ``module:Qual.name`` and resolved when
:func:`install` runs, so a later refactor that renames or deletes one
makes that layer ``absent`` instead of breaking the benchmark.  Every
wrapped call pushes a frame on one stack; a layer's *self time* is its
frame's duration minus the durations of the wrapped calls made inside
it, so the self times of all layers plus the root ``workload`` frame
add up to the traced wall time.

Counters are aggregated in memory.  Spans (start, end, parent) are kept
only for the coarse boundaries -- workload, sweep, sweep trial,
``Machine.run`` -- and written out once the run ends.
"""

from __future__ import annotations

import importlib
import re
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

ROOT = "workload"
SWEEP = "harness.sweep"
DRIVER = "attack.driver"
HOOKS = "cpu.hooks"
FAULT_HOOKS = "kernel.fault_hooks"

#: Core attributes holding observer/gate callables.  A ``list``
#: subclass that times every callable appended to it replaces each one
#: right after ``Core.__init__``, which also catches hooks that attacks
#: and defense mechanisms append later.
HOOK_LISTS = ("decode_hooks", "issue_hooks", "complete_hooks",
              "retire_hooks", "squash_hooks", "pte_race_hooks",
              "issue_gates")

#: ``run_resilient_sweep`` is bound by name at import time in these
#: modules; each use site is wrapped.
SWEEP_SITES = ("repro.experiment:run_resilient_sweep",
               "repro.harness:run_resilient_sweep")

MEMO_LAYERS = ("memo.keys.trial_key", "memo.store.get", "memo.store.put")


@dataclass(frozen=True)
class Layer:
    """One timed layer: the entry points it wraps and, optionally, a
    counter fed from each call's return value."""

    name: str
    targets: Tuple[str, ...]
    tally: Optional[Tuple[str, Callable[[Any], int]]] = None
    span: bool = False


def _store_hit(result: Any) -> int:
    return int(bool(result[0]))


LAYERS: Tuple[Layer, ...] = (
    Layer("cpu.core.step", ("repro.cpu.core:Core.step",)),
    Layer("cpu.core.fast_forward", ("repro.cpu.core:Core.fast_forward",),
          tally=("cpu.core.fast_forward.skipped_cycles", int)),
    Layer("cpu.machine.run", ("repro.cpu.machine:Machine.run",),
          tally=("cpu.sim_cycles", int), span=True),
    Layer("cpu.machine.init", ("repro.cpu.machine:Machine.__init__",)),
    Layer("mem.hierarchy.access",
          ("repro.mem.hierarchy:MemoryHierarchy.access",)),
    Layer("vm.walker.walk", ("repro.vm.walker:PageWalker.walk",)),
    Layer("vm.tlb.lookup", ("repro.vm.tlb:TLBHierarchy.lookup",)),
    Layer("kernel.page_fault",
          ("repro.kernel.kernel:Kernel.handle_page_fault",)),
    Layer("kernel.interrupt",
          ("repro.kernel.kernel:Kernel.handle_interrupt",)),
    Layer("core.module.prime_probe",
          ("repro.core.module:MicroScopeModule.prime_lines",
           "repro.core.module:MicroScopeModule.probe_lines")),
    Layer("core.module.walk_tuning",
          ("repro.core.module:MicroScopeModule.apply_walk_tuning",)),
    Layer("snapshot.capture",
          ("repro.snapshot.machine:MachineSnapshot.take",)),
    Layer("snapshot.restore",
          ("repro.snapshot.machine:MachineSnapshot.restore",)),
    Layer("memo.keys.trial_key", ("repro.memo.keys:trial_key",)),
    Layer("memo.store.get", ("repro.memo.store:TrialStore.get",),
          tally=("memo.store.hits", _store_hit)),
    Layer("memo.store.put", ("repro.memo.store:TrialStore.put",)),
    Layer("evaluation.build_matrix",
          ("repro.evaluation.matrix:build_matrix",)),
)

#: Which end-to-end metrics each per-layer metric should move, and on
#: which workloads -- written down before measuring, so a later change
#: can be checked against where the profile said the time was.  On the
#: simulating workloads ``op_ms_p10`` is host time per simulated cycle,
#: so it moves with the layers that run inside ``Machine.run``; work
#: outside it (building platforms, snapshots, store writes) moves
#: ``run_s`` only.
SIMULATING = ("matrix-cold", "aes-key-recovery", "fig10-port-contention")
EVERY = SIMULATING + ("matrix-warm",)
_PER_CYCLE = ("op_ms_p10", "run_s")
_TIMED = (("cpu.core.step", _PER_CYCLE,
           ("fig10-port-contention", "matrix-cold")),
          ("cpu.core.fast_forward", _PER_CYCLE,
           ("aes-key-recovery", "matrix-cold")),
          ("cpu.machine.run", _PER_CYCLE, ("aes-key-recovery",)),
          ("cpu.machine.init", ("run_s",), ("matrix-cold",)),
          (HOOKS, _PER_CYCLE, ("matrix-cold",)),
          ("mem.hierarchy.access", _PER_CYCLE, ("aes-key-recovery",)),
          ("vm.walker.walk", _PER_CYCLE, ("aes-key-recovery",)),
          ("vm.tlb.lookup", _PER_CYCLE, ("aes-key-recovery",)),
          ("kernel.page_fault", _PER_CYCLE,
           ("aes-key-recovery", "matrix-cold")),
          ("kernel.interrupt", _PER_CYCLE,
           ("aes-key-recovery", "matrix-cold")),
          (FAULT_HOOKS, _PER_CYCLE, ("aes-key-recovery", "matrix-cold")),
          ("core.module.prime_probe", _PER_CYCLE, ("aes-key-recovery",)),
          ("core.module.walk_tuning", _PER_CYCLE, ("aes-key-recovery",)),
          ("snapshot.capture", ("run_s", "peak_rss_mb"),
           ("fig10-port-contention", "matrix-cold")),
          ("snapshot.restore", ("run_s", "peak_rss_mb"),
           ("fig10-port-contention", "matrix-cold")),
          ("memo.keys.trial_key", ("op_ms_p10",), ("matrix-warm",)),
          ("memo.store.get", ("op_ms_p10",), ("matrix-warm",)),
          ("memo.store.put", ("run_s",), ("matrix-cold",)),
          ("evaluation.build_matrix", ("op_ms_p10",), ("matrix-warm",)))
_SPLIT = ((SWEEP, ("op_ms_p10",), ("matrix-warm",)),
          (DRIVER, ("run_s",), ("matrix-cold",)))
MOVES: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    f"{layer}.{suffix}": (metrics, workloads)
    for layer, metrics, workloads in _TIMED
    for suffix in ("self_s", "self_frac", "calls")}
MOVES.update({
    f"{layer}.{suffix}": (metrics, workloads)
    for layer, metrics, workloads in _SPLIT
    for suffix in ("self_s", "self_frac")})
MOVES.update({
    "cpu.core.step.us_per_call": (_PER_CYCLE, ("fig10-port-contention",
                                               "matrix-cold")),
    "cpu.sim_cycles": (("run_s",), ("aes-key-recovery", "matrix-cold")),
    "cpu.core.fast_forward.skipped_cycles":
        (_PER_CYCLE, ("aes-key-recovery", "matrix-cold")),
    "cpu.stepped_frac": (_PER_CYCLE, ("aes-key-recovery", "matrix-cold")),
    "cpu.retired": (("run_s",), SIMULATING),
    "cpu.squashed": (("run_s",), SIMULATING),
    "mem.l1d.hit_ratio": (("run_s",), SIMULATING),
    "vm.walker.walks": (("run_s",), SIMULATING),
    "memo.store.hit_ratio": (("op_ms_p10",), ("matrix-warm",)),
    "harness.attempts": (("op_ms_p10",), ("matrix-warm",)),
    "process.import_s": (("setup_s",), EVERY),
    "trace.wall_s": (("run_s",), EVERY),
    "trace.overhead": (("run_s",), EVERY),
    "trace.unaccounted_frac": (("run_s",), EVERY),
})

#: Unit of every per-layer metric, by name suffix.
UNITS = {"self_s": "s", "self_frac": "ratio", "calls": "count",
         "us_per_call": "us", "sim_cycles": "cycles",
         "skipped_cycles": "cycles", "stepped_frac": "ratio",
         "retired": "count", "squashed": "count", "walks": "count",
         "hit_ratio": "ratio", "attempts": "count", "import_s": "s",
         "wall_s": "s", "overhead": "x", "unaccounted_frac": "ratio"}


def unit_of(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]


# --- the tracer -------------------------------------------------------------


class LayerTracer:
    """Stack-based self-time and call-count accounting.

    ``clock`` is injectable so tests can drive a deterministic time
    source.  One sentinel frame sits at the bottom of the stack and
    absorbs the totals of calls made outside any root frame.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.tallies: Dict[str, int] = defaultdict(int)
        #: Layers none of whose entry points resolved at install time.
        self.absent: List[str] = []
        #: ``[id, parent, name, start, end, attrs]`` per coarse span.
        self.spans: List[list] = []
        self.hook_lists_seen = False
        self._root: Any = None
        self._stack: List[list] = [[0.0, 0.0]]
        self._span_stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # --- frames -------------------------------------------------------------

    def timed(self, layer: str, fn: Callable,
              tally: Optional[Tuple[str, Callable[[Any], int]]] = None
              ) -> Callable:
        """Wrap *fn* so each call is charged to *layer*.  This is the
        hot path (millions of calls per run): no spans, no lookups
        beyond the closure."""
        clock, stack = self.clock, self._stack
        self_s, calls, tallies = self.self_s, self.calls, self.tallies

        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                total = clock() - frame[0]
                stack.pop()
                self_s[layer] += total - frame[1]
                calls[layer] += 1
                stack[-1][1] += total
            if tally is not None:
                tallies[tally[0]] += tally[1](result)
            return result

        return wrapper

    def _enter(self, layer: str) -> Tuple[list, int]:
        start = self.clock()
        frame = [start, 0.0]
        self._stack.append(frame)
        span = len(self.spans)
        parent = self._span_stack[-1] if self._span_stack else None
        self.spans.append([span, parent, layer, start, None, {}])
        self._span_stack.append(span)
        return frame, span

    def _exit(self, layer: str, frame: list, span: int
              ) -> Tuple[float, float, float]:
        end = self.clock()
        total = end - frame[0]
        own = total - frame[1]
        self._stack.pop()
        self.self_s[layer] += own
        self.calls[layer] += 1
        self._stack[-1][1] += total
        self.spans[span][4] = end
        self._span_stack.pop()
        return end, total, own

    def spanned(self, layer: str, fn: Callable,
                tally: Optional[Tuple[str, Callable[[Any], int]]] = None
                ) -> Callable:
        """Like :meth:`timed`, and also record a span per call (for
        coarse, rarely called boundaries only)."""
        def wrapper(*args, **kwargs):
            frame, span = self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(layer, frame, span)
            if tally is not None:
                self.tallies[tally[0]] += tally[1](result)
            return result

        return wrapper

    def begin(self) -> None:
        """Open a root frame: one measured interval of the run."""
        self._root = self._enter(ROOT)

    def end(self) -> float:
        """Close the root frame; returns its duration."""
        frame, span = self._root
        return self._exit(ROOT, frame, span)[1]

    # --- sweeps -------------------------------------------------------------

    def _memo_self(self) -> float:
        return sum(self.self_s[layer] for layer in MEMO_LAYERS)

    def sweep(self, fn: Callable) -> Callable:
        """Wrap ``run_resilient_sweep``: its self time is split into the
        harness proper (wall minus trial attempts, as the returned
        ``SweepReport`` times them, minus memo calls) and the attack
        driver code that ran inside attempts outside any named layer."""
        def wrapper(*args, **kwargs):
            memo_before = self._memo_self()
            frame, span = self._enter(SWEEP)
            try:
                result = fn(*args, **kwargs)
            finally:
                end, total, own = self._exit(SWEEP, frame, span)
            self._split_sweep(getattr(result, "report", None), span, end,
                              total, own, self._memo_self() - memo_before)
            return result

        return wrapper

    def _split_sweep(self, report: Any, span: int, end: float,
                     total: float, own: float, memo_s: float) -> None:
        trials = getattr(report, "trials", None)
        if trials is None:
            return
        windows = []
        attempt_s = 0.0
        # The sweep's clock origin: wall_seconds ends at the sweep's
        # last statement, microseconds before this wrapper's clock().
        origin = end - report.wall_seconds
        for trial in trials:
            for attempt in trial.attempts:
                attempt_s += attempt.duration
                start = origin + attempt.started
                windows.append((start, start + attempt.duration,
                                {"index": trial.index,
                                 "attempt": attempt.attempt,
                                 "outcome": attempt.outcome}))
        self.tallies["harness.attempts"] += len(windows)
        driver = own - (total - attempt_s - memo_s)
        self.self_s[SWEEP] -= driver
        self.self_s[DRIVER] += driver
        first = len(self.spans)
        for start, stop, attrs in windows:
            self.spans.append([len(self.spans), span, "harness.trial",
                               start, stop, attrs])
        # Re-parent the Machine.run spans recorded inside each attempt.
        for record in self.spans[span + 1:first]:
            if record[1] != span:
                continue
            for trial_span in self.spans[first:]:
                if trial_span[3] <= record[3] <= trial_span[4]:
                    record[1] = trial_span[0]
                    break

    # --- hooks --------------------------------------------------------------

    def hook(self, layer: str, fn: Callable) -> "TimedHook":
        return TimedHook(fn, self.timed(layer, fn))

    # --- reporting ----------------------------------------------------------

    def span_records(self) -> List[Dict[str, Any]]:
        """Spans as JSON-ready dicts, times in seconds from the first."""
        origin = self.spans[0][3] if self.spans else 0.0
        return [{"id": sid, "parent": parent, "name": name,
                 "start_s": start - origin,
                 "dur_s": end - start,
                 **attrs}
                for sid, parent, name, start, end, attrs in self.spans]


class TimedHook:
    """A hook callable charged to a layer.  Compares and hashes like
    the callable it wraps, so ``hooks.remove(fn)`` still finds it."""

    __slots__ = ("fn", "_timed")

    def __init__(self, fn: Callable, timed: Callable):
        self.fn = fn
        self._timed = timed

    def __call__(self, *args: Any) -> Any:
        return self._timed(*args)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TimedHook):
            other = other.fn
        return bool(self.fn == other)

    def __hash__(self) -> int:
        return hash(self.fn)


class _HookList(list):
    """A hook list whose appended callables are charged to a layer."""

    __slots__ = ("_wrap",)

    def __init__(self, items: Sequence[Callable],
                 wrap: Callable[[Callable], Callable]):
        super().__init__(wrap(item) for item in items)
        self._wrap = wrap

    def append(self, item: Callable) -> None:
        super().append(self._wrap(item))


# --- installation -----------------------------------------------------------


def resolve(target: str) -> Tuple[Any, str, Any]:
    """``"pkg.mod:Cls.attr"`` -> ``(owner, attr, raw)``, where *raw* is
    the attribute as stored on its owner (a ``classmethod`` object, not
    the bound method).  Raises ``ImportError``/``AttributeError``."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in vars(klass):
                return owner, attr, vars(klass)[attr]
        raise AttributeError(f"{target}: no attribute {attr!r}")
    return owner, attr, getattr(owner, attr)


def _patch(tracer: LayerTracer, target: str,
           make: Callable[[Callable], Callable]) -> bool:
    try:
        owner, attr, raw = resolve(target)
    except (ImportError, AttributeError):
        return False
    if isinstance(raw, (classmethod, staticmethod)):
        replacement: Any = type(raw)(make(raw.__func__))
    elif callable(raw):
        replacement = make(raw)
    else:
        return False
    tracer._undo.append((owner, attr, vars(owner).get(attr, _MISSING)
                         if isinstance(owner, type) else raw))
    setattr(owner, attr, replacement)
    return True


_MISSING = object()


def install(tracer: LayerTracer, only: Optional[Sequence[str]] = None
            ) -> None:
    """Wrap every layer's entry points (or just the layers named in
    *only*).  Layers whose entry points all fail to resolve are listed
    in ``tracer.absent``."""
    wanted = set(only) if only is not None else None

    def wants(name: str) -> bool:
        return wanted is None or name in wanted

    for layer in LAYERS:
        if not wants(layer.name):
            continue
        wrap = tracer.spanned if layer.span else tracer.timed

        def make(fn, layer=layer, wrap=wrap):
            return wrap(layer.name, fn, layer.tally)

        resolved = [_patch(tracer, target, make) for target in layer.targets]
        if not any(resolved):
            tracer.absent.append(layer.name)
    if wants(SWEEP):
        if not any([_patch(tracer, site, tracer.sweep)
                    for site in SWEEP_SITES]):
            tracer.absent.append(SWEEP)
    if wants(HOOKS):
        _install_hook_lists(tracer)
    if wants(FAULT_HOOKS):
        def add_fault_hook(original):
            def wrapper(kernel, hook, *args, **kwargs):
                return original(kernel, tracer.hook(FAULT_HOOKS, hook),
                                *args, **kwargs)
            return wrapper
        if not _patch(tracer, "repro.kernel.kernel:Kernel.add_fault_hook",
                      add_fault_hook):
            tracer.absent.append(FAULT_HOOKS)


def _install_hook_lists(tracer: LayerTracer) -> None:
    def wrap(fn: Callable) -> Callable:
        return tracer.hook(HOOKS, fn)

    def init(original):
        def wrapper(core, *args, **kwargs):
            original(core, *args, **kwargs)
            for name in HOOK_LISTS:
                hooks = getattr(core, name, None)
                if isinstance(hooks, list):
                    setattr(core, name, _HookList(hooks, wrap))
                    tracer.hook_lists_seen = True
        return wrapper

    if not _patch(tracer, "repro.cpu.core:Core.__init__", init):
        tracer.absent.append(HOOKS)


def uninstall(tracer: LayerTracer) -> None:
    """Undo :func:`install` (the child process normally just exits)."""
    while tracer._undo:
        owner, attr, original = tracer._undo.pop()
        if original is _MISSING:
            delattr(owner, attr)
        else:
            setattr(owner, attr, original)


# --- per-layer metrics ------------------------------------------------------


#: Metrics computed from a layer's calls besides its own self time and
#: call count; they are absent whenever the layer is.
_DERIVED = {
    "cpu.core.step": ("cpu.core.step.us_per_call", "cpu.stepped_frac"),
    "cpu.core.fast_forward": ("cpu.core.fast_forward.skipped_cycles",
                              "cpu.stepped_frac"),
    "cpu.machine.run": ("cpu.sim_cycles",),
    "memo.store.get": ("memo.store.hit_ratio",),
    SWEEP: ("harness.attempts", f"{DRIVER}.self_s", f"{DRIVER}.self_frac"),
}

#: Sums over every machine's ``MetricsRegistry`` dump (regex on names).
_REGISTRY = {"cpu.retired": r"cpu\.ctx\d+\.retired",
             "cpu.squashed": r"cpu\.ctx\d+\.squashed",
             "vm.walker.walks": r"vm\.walker\.walks",
             "l1d.hits": r"mem\.l1d\.hits",
             "l1d.misses": r"mem\.l1d\.misses"}


def _ratio(num: float, den: float) -> Optional[float]:
    return num / den if den else None


def layer_metrics(tracer: LayerTracer, wall: float,
                  registry: Optional[Dict[str, Any]]
                  ) -> Tuple[Dict[str, Optional[float]], List[str]]:
    """Every per-layer metric of a traced run, and the sorted names of
    those that are absent (``None`` in the dict, as is a ratio with a
    zero denominator).  *wall* is the root frame's duration; *registry*
    is the sum of every machine's ``MetricsRegistry`` dump, ``None``
    when no machine was built."""
    out: Dict[str, Optional[float]] = {}
    for layer in [layer.name for layer in LAYERS] + [HOOKS, FAULT_HOOKS,
                                                     SWEEP, DRIVER]:
        seconds = tracer.self_s.get(layer, 0.0)
        out[f"{layer}.self_s"] = seconds
        out[f"{layer}.self_frac"] = _ratio(seconds, wall)
        if layer not in (SWEEP, DRIVER):
            out[f"{layer}.calls"] = tracer.calls.get(layer, 0)
    steps = tracer.calls.get("cpu.core.step", 0)
    skipped = tracer.tallies.get("cpu.core.fast_forward.skipped_cycles", 0)
    out["cpu.core.step.us_per_call"] = _ratio(
        1e6 * tracer.self_s.get("cpu.core.step", 0.0), steps)
    out["cpu.sim_cycles"] = tracer.tallies.get("cpu.sim_cycles", 0)
    out["cpu.core.fast_forward.skipped_cycles"] = skipped
    out["cpu.stepped_frac"] = _ratio(steps, steps + skipped)
    out["memo.store.hit_ratio"] = _ratio(
        tracer.tallies.get("memo.store.hits", 0),
        tracer.calls.get("memo.store.get", 0))
    out["harness.attempts"] = tracer.tallies.get("harness.attempts", 0)
    out["trace.wall_s"] = wall
    out["trace.unaccounted_frac"] = _ratio(tracer.self_s.get(ROOT, 0.0),
                                           wall)

    absent = set(tracer.absent)
    if tracer.calls.get("cpu.machine.init") and not tracer.hook_lists_seen:
        absent.add(HOOKS)
    gone = set()
    for layer in absent:
        gone.update(f"{layer}.{suffix}"
                    for suffix in ("self_s", "self_frac", "calls"))
        gone.update(_DERIVED.get(layer, ()))

    sums: Dict[str, Optional[int]] = {}
    for name, pattern in _REGISTRY.items():
        keys = [key for key in registry or () if re.fullmatch(pattern, key)]
        sums[name] = sum(int(registry[key]) for key in keys) if keys \
            else None
        if registry and not keys:
            gone.add("mem.l1d.hit_ratio" if name.startswith("l1d.")
                     else name)
    for name in ("cpu.retired", "cpu.squashed", "vm.walker.walks"):
        out[name] = sums[name] or 0
    hits, misses = sums["l1d.hits"] or 0, sums["l1d.misses"] or 0
    out["mem.l1d.hit_ratio"] = _ratio(hits, hits + misses)

    gone &= set(out)
    for name in gone:
        out[name] = None
    return out, sorted(gone)
