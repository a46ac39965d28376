"""Ablation (§4.1.2): page-walk duration tuning.

Paper claim: "The Replayer can tune the duration of the page walk time
to take from a few cycles to over one thousand cycles, by ensuring
that the desired page table entries are either present or absent from
the cache hierarchy."

Swept here: every (upper, leaf) placement, reporting walk latency and
the resulting speculation-window size in victim instructions.
"""

from types import SimpleNamespace

from repro.core.recipes import (
    ReplayAction,
    ReplayDecision,
    WalkLocation,
    WalkTuning,
)
from repro.core.replayer import AttackEnvironment, Replayer
from repro.isa.program import ProgramBuilder

from conftest import emit, render_table


def _window_victim(process, handle_va, work_va):
    """A victim with a long run of independent loads after the handle
    so the window size is measurable in executed instructions."""
    b = ProgramBuilder("window-probe")
    b.li("r1", handle_va)
    b.li("r2", work_va)
    b.load("r3", "r1", 0, comment="replay-handle")
    for i in range(90):
        b.load("r4", "r2", (i % 60) * 64)
    b.halt()
    return b.build()


def _measure(tuning):
    rep = Replayer(AttackEnvironment.build())
    process = rep.create_victim_process(enclave=False)
    handle_va = process.alloc(4096, "handle")
    work_va = process.alloc(4096, "work")
    program = _window_victim(process, handle_va, work_va)
    issued = [0]

    def hook(core, context, entry):
        if context.context_id == 0 and entry.instr.is_load \
                and entry.addr is not None and entry.addr >= work_va:
            issued[0] += 1

    rep.machine.attach(SimpleNamespace(on_issue=hook))
    walk_latency = [0]

    def attack_fn(event):
        return ReplayDecision(ReplayAction.RELEASE)

    recipe = rep.module.provide_replay_handle(
        process, handle_va, attack_function=attack_fn,
        walk_tuning=tuning)
    rep.launch_victim(process, program)
    rep.arm(recipe)
    # Capture the handle's actual walk latency from the core.
    rep.machine.run(20_000,
                    until=lambda m: recipe.replays >= 1)
    window = issued[0]
    rep.run_until_victim_done()
    return window


def test_walk_tuning_sweep(once):
    def experiment():
        rep = Replayer(AttackEnvironment.build())
        process = rep.create_victim_process(enclave=False)
        probe_va = process.alloc(4096, "probe")
        rows = []
        sweeps = [
            (WalkLocation.PWC, WalkLocation.L1),
            (WalkLocation.PWC, WalkLocation.L2),
            (WalkLocation.PWC, WalkLocation.L3),
            (WalkLocation.PWC, WalkLocation.DRAM),
            (WalkLocation.L1, WalkLocation.DRAM),
            (WalkLocation.DRAM, WalkLocation.DRAM),
        ]
        for upper, leaf in sweeps:
            tuning = WalkTuning(upper=upper, leaf=leaf)
            rep.module.apply_walk_tuning(process, probe_va, tuning)
            walk = rep.machine.walker.walk(
                process.pcid, process.root_frame, probe_va)
            window = _measure(tuning)
            rows.append([f"{upper.value}/{leaf.value}", walk.latency,
                         window])
        return rows

    rows = once(experiment)
    table = render_table(
        "Walk tuning (§4.1.2): upper-levels/leaf placement vs walk "
        "latency and speculative window",
        ["placement (upper/leaf)", "walk latency (cycles)",
         "window (speculated loads)"],
        rows)
    table += ("\n\npaper claim: 'from a few cycles to over one "
              "thousand cycles' -- range measured above")
    emit("ablation_walk_tuning", table)
    latencies = [row[1] for row in rows]
    assert latencies[0] < 30
    assert latencies[-1] > 1000
    windows = [row[2] for row in rows]
    assert windows[0] < windows[3]
