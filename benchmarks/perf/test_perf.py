"""Self-tests of the perf ledger's helpers (no simulation runs here).

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q``.
"""

from __future__ import annotations

import json
import re
import statistics
from pathlib import Path
from types import SimpleNamespace

import pytest

import child
import layers
import ledger
import run

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# --- statistics -------------------------------------------------------------


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert ledger.percentile(values, 0) == 1.0
    assert ledger.percentile(values, 100) == 4.0
    assert ledger.percentile(values, 25) == pytest.approx(1.75)
    assert ledger.median(values) == pytest.approx(2.5)
    assert ledger.percentile([7.0], 90) == 7.0


def test_quartiles_match_statistics_inclusive_method():
    values = [0.31, 0.27, 0.29, 0.35, 0.30, 0.28, 0.33]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    summary = ledger.summarize(values)
    assert summary["q1"] == pytest.approx(q1)
    assert summary["median"] == pytest.approx(q2)
    assert summary["q3"] == pytest.approx(q3)
    assert summary["n"] == 7
    assert ledger.spread(summary) == pytest.approx((q3 - q1) / q2)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        ledger.percentile([], 50)
    with pytest.raises(ValueError):
        ledger.percentile([1.0], 101)


def test_sampler_times_windows_that_simulated():
    sampler = child.Sampler()
    # 20k cycles in 0.5 s, nothing simulated for 0.5 s, 10k in 1 s.
    sampler.readings = [(0.0, 0), (0.5, 20_000), (1.0, 20_000),
                        (2.0, 30_000)]
    assert sampler.op_seconds() == pytest.approx([0.25, 1.0])


def test_sampler_counts_the_running_machine():
    sampler = child.Sampler()
    sampler.mark = (500, SimpleNamespace(cycle=1_300), 1_000)
    sampler._read()
    sampler.mark = (800, None, 0)
    sampler._read()
    assert [cycles for _, cycles in sampler.readings] == [800, 800]


def test_sampler_leaves_reference_loops_out_of_windows():
    sampler = child.Sampler()
    sampler.REFERENCE_EVERY = 1
    sampler.mark = (100, None, 0)
    sampler._read()
    # A reading before and after the loop, with no cycles between.
    assert [cycles for _, cycles in sampler.readings] == [100, 100]
    assert len(sampler.reference_s) == 1
    assert sampler.reference_spent == sampler.reference_s[0]
    assert sampler.op_seconds() == []


def test_timings_scale_to_the_reference_host_speed():
    nominal = run.REFERENCE_NOMINAL_S
    quiet = {"op_s": [0.002, 0.004], "reference_s": nominal}
    busy = {"op_s": [0.003, 0.006], "reference_s": 1.5 * nominal}
    assert run.scaled_ops(busy) == pytest.approx(run.scaled_ops(quiet))
    assert run.scaled_setup({"setup_s": 0.3,
                             "setup_reference_s": 2 * nominal}) \
        == pytest.approx(0.15)


# --- self-time accounting ---------------------------------------------------


def test_self_time_on_a_nested_call_tree():
    clock = FakeClock()
    tracer = layers.LayerTracer(clock=clock)

    def leaf():
        clock.now += 1.0

    timed_leaf = tracer.timed("leaf", leaf)

    def middle():
        clock.now += 2.0
        timed_leaf()
        timed_leaf()
        clock.now += 0.5

    timed_middle = tracer.timed("middle", middle)

    def top():
        clock.now += 3.0
        timed_middle()
        timed_leaf()

    tracer.begin()
    tracer.timed("top", top)()
    clock.now += 0.25
    wall = tracer.end()

    assert wall == pytest.approx(8.75)
    assert tracer.self_s["leaf"] == pytest.approx(3.0)
    assert tracer.calls["leaf"] == 3
    assert tracer.self_s["middle"] == pytest.approx(2.5)
    assert tracer.self_s["top"] == pytest.approx(3.0)
    assert tracer.self_s[layers.ROOT] == pytest.approx(0.25)
    assert sum(tracer.self_s.values()) == pytest.approx(wall)


def test_self_time_survives_exceptions_and_recursion():
    clock = FakeClock()
    tracer = layers.LayerTracer(clock=clock)

    def boom(depth):
        clock.now += 1.0
        if depth:
            wrapped(depth - 1)
        else:
            raise KeyError("bottom")

    wrapped = tracer.timed("rec", boom)
    tracer.begin()
    with pytest.raises(KeyError):
        wrapped(2)
    assert tracer.end() == pytest.approx(3.0)
    assert tracer.self_s["rec"] == pytest.approx(3.0)
    assert tracer.calls["rec"] == 3


def test_tally_counts_return_values():
    tracer = layers.LayerTracer(clock=FakeClock())
    run = tracer.timed("run", lambda cycles: cycles, tally=("cycles", int))
    run(5)
    run(7)
    assert tracer.tallies["cycles"] == 12


def test_sweep_split_and_trial_spans():
    clock = FakeClock()
    tracer = layers.LayerTracer(clock=clock)
    machine_run = tracer.spanned("cpu.machine.run",
                                 lambda: setattr(clock, "now",
                                                 clock.now + 2.0))
    store_get = tracer.timed("memo.store.get",
                             lambda: setattr(clock, "now",
                                             clock.now + 0.5))

    def sweep():
        store_get()             # 0.5 s of memo work, before attempts
        clock.now += 0.25       # harness bookkeeping
        origin = clock.now
        clock.now += 1.0        # attack driver code in attempt 0
        machine_run()           # 2.0 s of simulation in attempt 0
        clock.now += 1.0        # attempt 1: driver code only
        attempts = [SimpleNamespace(attempt=0, outcome="ok",
                                    started=0.0, duration=3.0),
                    SimpleNamespace(attempt=0, outcome="ok",
                                    started=3.0, duration=1.0)]
        clock.now += 0.25       # more harness bookkeeping
        trials = [SimpleNamespace(index=i, attempts=[a])
                  for i, a in enumerate(attempts)]
        return SimpleNamespace(report=SimpleNamespace(
            trials=trials, wall_seconds=clock.now - origin))

    tracer.begin()
    tracer.sweep(sweep)()
    wall = tracer.end()

    assert tracer.self_s[layers.SWEEP] == pytest.approx(0.5)
    assert tracer.self_s[layers.DRIVER] == pytest.approx(2.0)
    assert tracer.tallies["harness.attempts"] == 2
    assert sum(tracer.self_s.values()) == pytest.approx(wall)
    spans = {s["id"]: s for s in tracer.span_records()}
    trials = [s for s in spans.values() if s["name"] == "harness.trial"]
    assert [t["index"] for t in trials] == [0, 1]
    run_span = next(s for s in spans.values()
                    if s["name"] == "cpu.machine.run")
    assert spans[run_span["parent"]]["name"] == "harness.trial"
    assert spans[run_span["parent"]]["index"] == 0


# --- hooks and installation -------------------------------------------------


class Toy:
    def work(self, n):
        return n * 2

    @classmethod
    def build(cls, n):
        return n + 1


def test_timed_hook_compares_like_its_callable():
    tracer = layers.LayerTracer(clock=FakeClock())
    toy = Toy()
    hooks = layers._HookList([], lambda fn: tracer.hook("hooks", fn))
    hooks.append(toy.work)
    assert isinstance(hooks[0], layers.TimedHook)
    assert hooks[0](3) == 6
    assert tracer.calls["hooks"] == 1
    assert toy.work in hooks
    hooks.remove(toy.work)
    assert not hooks


def test_install_reports_absent_layers_and_uninstalls(monkeypatch):
    here = __name__
    monkeypatch.setattr(layers, "LAYERS", (
        layers.Layer("toy.work", (f"{here}:Toy.work",)),
        layers.Layer("toy.build", (f"{here}:Toy.build",)),
        layers.Layer("toy.gone", (f"{here}:Toy.renamed",
                                  "no_such_module_anywhere:fn")),
    ))
    original = Toy.__dict__["work"]
    tracer = layers.LayerTracer()
    layers.install(tracer, only=("toy.work", "toy.build", "toy.gone"))
    try:
        assert tracer.absent == ["toy.gone"]
        assert Toy().work(2) == 4
        assert Toy.build(2) == 3
        assert tracer.calls["toy.work"] == 1
        assert tracer.calls["toy.build"] == 1
    finally:
        layers.uninstall(tracer)
    assert Toy.__dict__["work"] is original
    assert isinstance(Toy.__dict__["build"], classmethod)


def test_absent_layers_report_none_not_zero():
    tracer = layers.LayerTracer(clock=FakeClock())
    tracer.absent = ["cpu.core.step", layers.SWEEP]
    metrics, absent = layers.layer_metrics(tracer, 1.0, None)
    for name in ("cpu.core.step.self_frac", "cpu.core.step.calls",
                 "cpu.core.step.us_per_call", "cpu.stepped_frac",
                 "harness.sweep.self_s", "harness.attempts",
                 "attack.driver.self_frac"):
        assert metrics[name] is None
        assert name in absent
    assert metrics["cpu.machine.run.calls"] == 0
    assert "cpu.machine.run.calls" not in absent


def test_registry_counters_missing_from_a_dump_are_absent():
    tracer = layers.LayerTracer(clock=FakeClock())
    dump = {"cpu.ctx0.retired": 5, "cpu.ctx1.retired": 7,
            "cpu.ctx0.squashed": 1, "mem.l1d.hits": 3,
            "mem.l1d.misses": 1}
    metrics, absent = layers.layer_metrics(tracer, 1.0, dump)
    assert metrics["cpu.retired"] == 12
    assert metrics["mem.l1d.hit_ratio"] == pytest.approx(0.75)
    assert metrics["vm.walker.walks"] is None
    assert absent == ["vm.walker.walks"]


# --- compare verdicts -------------------------------------------------------


def _summary(*samples):
    return ledger.summarize(list(samples))


def test_verdict_regression_ok_and_unresolved():
    base = _summary(10.0, 10.1, 10.2)
    assert ledger.verdict(base, _summary(10.5, 10.6, 10.7),
                          better="lower", bound=0.1) == "ok"
    assert ledger.verdict(base, _summary(11.5, 11.6, 11.7),
                          better="lower", bound=0.1) == "regression"
    noisy = _summary(8.0, 11.5, 14.0)
    assert ledger.verdict(base, noisy, better="lower",
                          bound=0.1) == "unresolved"
    # A higher-is-better metric regresses when it drops.
    assert ledger.verdict(base, _summary(8.0, 8.1, 8.2),
                          better="higher", bound=0.1) == "regression"


def test_verdict_noisy_but_every_run_better_is_ok():
    base = _summary(10.0, 12.0, 14.0)
    assert ledger.verdict(base, _summary(6.0, 7.0, 9.0),
                          better="lower", bound=0.1) == "ok"


def test_verdict_absolute_zero_bound_judges_the_worst_run():
    zero = _summary(0.0, 0.0, 0.0)
    assert ledger.verdict(zero, _summary(0.0, 0.001, 0.0),
                          better="lower", bound=0.0) == "regression"
    assert ledger.verdict(zero, zero, better="lower", bound=0.0) == "ok"


def test_compare_gates_end_to_end_only():
    benchmark = ledger.load_benchmark(ROOT)
    layer = benchmark["per_layer"][0]["name"]

    def entry(p10, run_s, layer_value):
        return {"end_to_end": {"op_ms_p10": _summary(*p10),
                               "run_s": _summary(*run_s)},
                "per_layer": {layer: {"value": layer_value, "unit": "ratio",
                                      "absent": False}}}

    base = {"workloads": {"w": entry((10.0, 10.0, 10.1), (5.0, 5.0), 1.0)}}
    new = {"workloads": {"w": entry((10.2, 10.2, 10.3), (9.0, 9.0), 9.0)}}
    rows = ledger.compare(base, new, benchmark)
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts == {"op_ms_p10": "ok", "run_s": "reported",
                        layer: "diagnostic"}
    assert all(ledger.format_compare(rows))


# --- BENCHMARK.json lint ----------------------------------------------------


NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_lint():
    benchmark = ledger.load_benchmark(ROOT)
    assert set(benchmark) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    workloads = [w["name"] for w in benchmark["workloads"]]
    e2e = benchmark["end_to_end"]
    per_layer = benchmark["per_layer"]
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(e2e) <= 16
    assert 1 <= len(per_layer) <= 128
    names = workloads + [m["name"] for m in e2e + per_layer]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in e2e:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e)
    # Layers may name a metric or workload the ledger reports but does
    # not gate.
    e2e_names = set(ledger.end_to_end(benchmark))
    for metric in per_layer:
        assert set(metric) == {"name", "unit", "better"}
        assert metric["unit"] == layers.unit_of(metric["name"])
        metrics, workloads_moved = layers.MOVES[metric["name"]]
        assert set(metrics) <= e2e_names, metric["name"]
        assert set(workloads_moved) <= set(ledger.workloads(benchmark)), \
            metric["name"]
        # Every listed layer metric speaks to a gated workload.
        assert set(workloads_moved) & set(workloads), metric["name"]
    for path in benchmark["paths"]:
        assert (ROOT / path).is_dir()
    assert json.loads(json.dumps(benchmark)) == benchmark


def test_every_listed_layer_metric_is_measured():
    benchmark = ledger.load_benchmark(ROOT)
    measured, _ = layers.layer_metrics(
        layers.LayerTracer(clock=FakeClock()), 1.0, None)
    measured.update({"process.import_s": 0.0, "trace.overhead": 1.0})
    assert set(layers.MOVES) == set(measured)
    for metric in benchmark["per_layer"]:
        assert metric["name"] in measured
