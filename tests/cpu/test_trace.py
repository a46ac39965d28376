"""Pipeline tracer: lifecycle capture and rendering."""

from repro.cpu.machine import Machine
from repro.cpu.trace import PipelineTracer, render_pipeline
from repro.isa.program import ProgramBuilder


def traced_machine(program):
    machine = Machine()
    tracer = PipelineTracer()
    machine.attach(tracer)
    machine.contexts[0].load_program(program)
    machine.run(100_000)
    return machine, tracer


def test_lifecycle_recorded_in_order():
    _machine, tracer = traced_machine(
        ProgramBuilder().li("r1", 1).addi("r2", "r1", 1).halt().build())
    for record in tracer.records:
        assert record.fetch_cycle is not None
        if record.retire_cycle is not None:
            assert record.fetch_cycle <= record.retire_cycle
        if record.issue_cycle is not None:
            assert record.fetch_cycle <= record.issue_cycle
        if record.complete_cycle is not None \
                and record.issue_cycle is not None:
            assert record.issue_cycle < record.complete_cycle


def test_all_retired_for_clean_program():
    _machine, tracer = traced_machine(
        ProgramBuilder().li("r1", 1).mul("r2", "r1", "r1")
        .halt().build())
    assert len(tracer.records) == 3
    assert all(r.retire_cycle is not None for r in tracer.records)
    assert not tracer.squashed()


def test_mispredict_squashes_traced():
    program = (ProgramBuilder()
               .li("r1", 0).li("r2", 20)
               .label("l")
               .addi("r1", "r1", 1)
               .bne("r1", "r2", "l")
               .li("r3", 9)
               .halt().build())
    _machine, tracer = traced_machine(program)
    squashed = tracer.squashed()
    assert squashed
    assert any(r.squash_reason == "mispredict" for r in squashed)


def test_replay_trail_visible():
    """Replays show as multiple dynamic instances of the same static
    instruction, all but the last squashed by page faults."""
    from repro.core.recipes import replay_n_times
    from repro.core.replayer import AttackEnvironment, Replayer
    rep = Replayer(AttackEnvironment.build())
    tracer = PipelineTracer()
    rep.machine.attach(tracer)
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
    instances = tracer.replays_of(index=1)   # the load
    assert len(instances) == 5               # 4 replays + final
    assert sum(1 for r in instances
               if r.squash_reason == "page-fault") == 4
    assert instances[-1].retire_cycle is not None


def test_render_pipeline_output():
    _machine, tracer = traced_machine(
        ProgramBuilder().li("r1", 1).fli("f1", 2.0)
        .fdiv("f2", "f1", "f1").halt().build())
    text = render_pipeline(tracer.records)
    assert "cycles" in text
    assert "fdiv" in text
    assert "F" in text and "R" in text


def test_render_empty():
    assert "no instructions" in render_pipeline([])


def test_capacity_cap():
    tracer = PipelineTracer(capacity=2)
    machine = Machine()
    machine.attach(tracer)
    machine.contexts[0].load_program(
        ProgramBuilder().nop().nop().nop().nop().halt().build())
    machine.run(10_000)
    assert len(tracer.records) == 2


def test_for_context_filter():
    machine = Machine()
    tracer = PipelineTracer()
    machine.attach(tracer)
    machine.contexts[0].load_program(
        ProgramBuilder().li("r1", 1).halt().build())
    machine.contexts[1].load_program(
        ProgramBuilder().li("r1", 2).nop().halt().build())
    machine.run(10_000)
    assert len(tracer.for_context(0)) == 2
    assert len(tracer.for_context(1)) == 3
