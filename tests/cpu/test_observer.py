"""The core's observer protocol: per-stage dispatch, attach order, gate
short-circuiting, attach/detach bookkeeping, and the two bugs a single
call site per stage fixes."""

from types import SimpleNamespace

import pytest

from repro.cpu.machine import Machine
from repro.cpu.observer import STAGES, Observer, UnitIssueCounter
from repro.cpu.trace import PipelineTracer
from repro.evaluation.defenses import fences_machine
from repro.isa.program import ProgramBuilder
from repro.kernel.kernel import Kernel


def _program():
    """Decodes, issues, completes and retires, with one mispredict."""
    return (ProgramBuilder()
            .li("r1", 0).li("r2", 3)
            .label("loop")
            .addi("r1", "r1", 1)
            .mul("r3", "r1", "r1")
            .bne("r1", "r2", "loop")
            .halt().build())


def _dispatch(core):
    return {stage: getattr(core, "_" + stage) for stage in STAGES}


class Recorder(Observer):
    """Logs every stage it is called at, under *name*, into *log*."""

    def __init__(self, name, log):
        self.name = name
        self.log = log

    def on_decode(self, core, context, entry):
        self.log.append((self.name, "decode", entry.seq))

    def on_issue(self, core, context, entry):
        self.log.append((self.name, "issue", entry.seq))

    def on_complete(self, core, context, entry):
        self.log.append((self.name, "complete", entry.seq))

    def on_retire(self, core, context, entry):
        self.log.append((self.name, "retire", entry.seq))

    def on_squash(self, core, context, squashed, reason, trigger):
        self.log.append((self.name, "squash", reason))


class RetireOnly(Observer):
    def __init__(self):
        self.retired = 0

    def on_retire(self, core, context, entry):
        self.retired += 1


# --- per-stage dispatch -----------------------------------------------------


def test_nothing_attached_means_every_stage_is_empty():
    core = Machine().core
    assert core.observers == ()
    assert all(methods == () for methods in _dispatch(core).values())


def test_dispatch_reaches_only_observers_defining_the_stage():
    machine = Machine()
    core = machine.core
    retire_only = RetireOnly()
    core.attach(retire_only)
    dispatch = _dispatch(core)
    assert dispatch["on_retire"] == (retire_only.on_retire,)
    assert all(methods == () for stage, methods in dispatch.items()
               if stage != "on_retire")
    machine.contexts[0].load_program(_program())
    machine.run(100_000)
    assert retire_only.retired == machine.contexts[0].stats.retired > 0


def test_duck_typed_observer_needs_no_base_class():
    machine = Machine()
    issued = []
    machine.core.attach(SimpleNamespace(
        on_issue=lambda core, context, entry: issued.append(entry.seq)))
    assert machine.core._on_retire == ()
    machine.contexts[0].load_program(_program())
    machine.run(100_000)
    assert len(issued) == machine.contexts[0].stats.issued > 0


def test_every_stage_fires():
    machine = Machine()
    log = []
    machine.core.attach(Recorder("a", log))
    machine.contexts[0].load_program(_program())
    machine.run(100_000)
    assert {kind for _name, kind, _arg in log} == {
        "decode", "issue", "complete", "retire", "squash"}
    assert ("a", "squash", "mispredict") in log


def test_observers_are_called_in_attach_order():
    machine = Machine()
    log = []
    machine.core.attach(Recorder("first", log))
    machine.core.attach(Recorder("second", log))
    machine.contexts[0].load_program(_program())
    machine.run(100_000)
    names = [name for name, _kind, _arg in log]
    assert names[0::2] == ["first"] * (len(log) // 2)
    assert names[1::2] == ["second"] * (len(log) // 2)
    assert [event[1:] for event in log[0::2]] == \
        [event[1:] for event in log[1::2]]


def test_gates_short_circuit_in_attach_order():
    machine = Machine()
    calls = []

    def gate(name, verdict):
        def check(core, context, entry):
            calls.append(name)
            return verdict
        return SimpleNamespace(gate=check)

    machine.core.attach(gate("open", True))
    machine.core.attach(gate("shut", False))
    machine.core.attach(gate("never", True))
    machine.contexts[0].load_program(ProgramBuilder().nop().halt().build())
    machine.run(200)
    assert calls and set(calls) == {"open", "shut"}
    assert calls[0::2] == ["open"] * (len(calls) // 2)
    assert machine.contexts[0].stats.issued == 0   # every issue held


# --- attach / detach bookkeeping --------------------------------------------


def test_double_attach_raises():
    core = Machine().core
    observer = Recorder("a", [])
    core.attach(observer)
    with pytest.raises(ValueError, match="already attached"):
        core.attach(observer)
    assert core.observers == (observer,)


def test_detach_of_unattached_observer_raises():
    with pytest.raises(ValueError, match="not attached"):
        Machine().core.detach(Recorder("a", []))


def test_detach_empties_every_stage_tuple():
    core = Machine().core
    observers = [Recorder("a", []), RetireOnly(),
                 SimpleNamespace(gate=lambda core, context, entry: True,
                                 on_pte_race=lambda core, c, e: False)]
    for observer in observers:
        core.attach(observer)
    assert all(_dispatch(core).values())
    for observer in observers:
        core.detach(observer)
    assert core.observers == ()
    assert all(methods == () for methods in _dispatch(core).values())


def test_detach_keeps_the_others_in_order():
    core = Machine().core
    a, b, c = RetireOnly(), RetireOnly(), RetireOnly()
    for observer in (a, b, c):
        core.attach(observer)
    core.detach(b)
    assert core.observers == (a, c)
    assert core._on_retire == (a.on_retire, c.on_retire)


def test_tracer_detach_restores_untraced_dispatch():
    machine = Machine()
    before = _dispatch(machine.core)
    tracer = PipelineTracer()
    machine.attach_tracer(tracer)
    assert machine.core.observers[-1] is tracer
    machine.attach_tracer(PipelineTracer())   # replaces, never stacks
    assert tracer not in machine.core.observers
    machine.detach_tracer()
    assert _dispatch(machine.core) == before


def test_unit_issue_counter_counts_divider_and_multiplier_on_one_context():
    counter = UnitIssueCounter()
    machine = Machine()
    machine.core.attach(counter)
    machine.contexts[0].load_program(
        ProgramBuilder().li("r1", 3).fli("f1", 2.0)
        .mul("r2", "r1", "r1").fdiv("f2", "f1", "f1")
        .fdiv("f3", "f1", "f1").halt().build())
    machine.contexts[1].load_program(
        ProgramBuilder().li("r1", 3).mul("r2", "r1", "r1").halt().build())
    machine.run(100_000)
    assert counter.counts == {"div": 2, "mul": 1}
    counts = counter.counts
    counter.reset()
    assert counts == {"div": 0, "mul": 0}


# --- one call site per stage ------------------------------------------------


def test_pte_race_won_load_is_traced_as_completed_normally():
    """The complete stage runs after the PTE race, so a load whose walk
    the OS won completes with its fault cleared."""
    machine = Machine()
    kernel = Kernel(machine)
    process = kernel.create_process("victim")
    data = process.alloc(4096, "data")
    process.write(data, 4242)
    kernel.set_present(process, data, False)
    races = []

    def race(core, context, entry):
        races.append(entry.seq)
        kernel.set_present(process, data, True)
        return True

    tracer = PipelineTracer()
    machine.core.attach(SimpleNamespace(on_pte_race=race))
    machine.core.attach(tracer)
    kernel.launch(process, ProgramBuilder().li("r1", data)
                  .load("r2", "r1", 0).halt().build())
    machine.run(100_000)
    assert machine.contexts[0].int_regs["r2"] == 4242
    assert machine.contexts[0].stats.faults == 0
    assert len(races) == 1
    (load,) = tracer.replays_of(index=1)
    assert load.retire_cycle is not None
    assert load.faulted is False


def test_relaunch_clears_a_stale_serialise_request():
    machine = Machine()
    context = machine.contexts[0]
    context.serialize_next_fetch = True
    context.load_program(ProgramBuilder().nop().halt().build())
    assert context.serialize_next_fetch is False


def test_fences_request_left_by_a_finished_program_does_not_fence_the_next():
    """A mispredict whose corrected target is past the program's end
    leaves the fences mechanism's request unconsumed; the next program
    must still start unserialised."""
    machine = Machine(fences_machine())
    context = machine.contexts[0]
    machine.core.predictor.prime(2, False)   # predict the beq not-taken
    context.load_program(ProgramBuilder()
                         .li("r1", 1).li("r2", 1)
                         .beq("r1", "r2", "end")
                         .halt()
                         .label("end")
                         .build())
    machine.run(100_000)
    assert context.finished()
    assert context.serialize_next_fetch   # left over, never consumed
    context.load_program(ProgramBuilder().nop().nop().halt().build())
    machine.step()
    assert context.rob.entries          # the first fetch happened ...
    assert context.fence_seqs == []     # ... and was not serialised
