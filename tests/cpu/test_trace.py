"""Instruction tracing on a real core: the event tracer's per-instruction
slices, its ``instructions`` query and ``render_pipeline``."""

from repro.cpu.machine import Machine
from repro.isa.program import ProgramBuilder
from repro.observability import EventTracer, render_pipeline


def traced_machine(program):
    machine = Machine()
    tracer = EventTracer()
    machine.attach_tracer(tracer)
    machine.contexts[0].load_program(program)
    machine.run(100_000)
    return machine, tracer


def test_lifecycle_recorded_in_order():
    _machine, tracer = traced_machine(
        ProgramBuilder().li("r1", 1).addi("r2", "r1", 1).halt().build())
    slices = tracer.instructions(0)
    assert slices
    for event in slices:
        fetch, end = event.ts, event.ts + event.dur
        assert fetch < end
        issue = event.args.get("issue")
        complete = event.args.get("complete")
        if issue is not None:
            assert fetch <= issue <= end
        if complete is not None and issue is not None:
            assert issue < complete <= end


def test_all_retired_for_clean_program():
    _machine, tracer = traced_machine(
        ProgramBuilder().li("r1", 1).mul("r2", "r1", "r1")
        .halt().build())
    slices = tracer.instructions(0)
    assert len(slices) == 3
    assert all(e.cat == "pipeline" for e in slices)
    assert not any("faulted" in e.args for e in slices)


def test_mispredict_squashes_traced():
    program = (ProgramBuilder()
               .li("r1", 0).li("r2", 20)
               .label("l")
               .addi("r1", "r1", 1)
               .bne("r1", "r2", "l")
               .li("r3", 9)
               .halt().build())
    _machine, tracer = traced_machine(program)
    squashed = [e for e in tracer.instructions(0) if e.cat == "squash"]
    assert squashed
    assert any(e.args["reason"] == "mispredict" for e in squashed)


def test_replay_trail_visible():
    """Replays show as multiple dynamic instances of the same static
    instruction, all but the last squashed by page faults."""
    from repro.core.recipes import replay_n_times
    from repro.core.replayer import AttackEnvironment, Replayer
    rep = Replayer(AttackEnvironment.build())
    tracer = EventTracer()
    rep.machine.attach_tracer(tracer)
    process = rep.create_victim_process(enclave=False)
    data = process.alloc(4096, "d")
    program = (ProgramBuilder()
               .li("r1", data)
               .load("r2", "r1", 0)
               .halt().build())
    recipe = rep.module.provide_replay_handle(
        process, data, attack_function=replay_n_times(4))
    rep.launch_victim(process, program)
    rep.arm(recipe)
    rep.run_until_victim_done()
    instances = tracer.instructions(0, index=1)   # the load
    assert len(instances) == 5                     # 4 replays + final
    assert [e.ts for e in instances] == sorted(e.ts for e in instances)
    replays = instances[:-1]
    assert all(e.args["reason"] == "page-fault" for e in replays)
    assert all(e.args["faulted"] is True for e in replays)
    assert all(e.args["replay"] is True for e in replays[1:])
    assert instances[-1].cat == "pipeline"
    assert "faulted" not in instances[-1].args


def test_render_pipeline_output():
    _machine, tracer = traced_machine(
        ProgramBuilder().li("r1", 1).fli("f1", 2.0)
        .fdiv("f2", "f1", "f1").halt().build())
    text = render_pipeline(tracer.instructions(0))
    assert "cycles" in text
    assert "fdiv" in text
    assert "F" in text and "R" in text


def test_render_empty():
    assert "no instructions" in render_pipeline([])


def test_capacity_cap():
    """The ring keeps the newest slices once it wraps."""
    tracer = EventTracer(capacity=2)
    machine = Machine()
    machine.attach_tracer(tracer)
    machine.contexts[0].load_program(
        ProgramBuilder().nop().nop().nop().nop().halt().build())
    machine.run(10_000)
    assert tracer.total_emitted == 5
    assert [e.args["index"] for e in tracer.instructions(0)] == [3, 4]


def test_for_context_filter():
    machine = Machine()
    tracer = EventTracer()
    machine.attach_tracer(tracer)
    machine.contexts[0].load_program(
        ProgramBuilder().li("r1", 1).halt().build())
    machine.contexts[1].load_program(
        ProgramBuilder().li("r1", 2).nop().halt().build())
    machine.run(10_000)
    assert len(tracer.instructions(0)) == 2
    assert len(tracer.instructions(1)) == 3
    assert {e.tid for e in tracer.instructions(1)} == {1}
