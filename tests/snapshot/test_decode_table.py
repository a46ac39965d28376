"""The decode table is derived state: it stays out of every snapshot,
and a restore brings back the table of the restored program."""

import pickle

from repro.cpu.machine import Machine
from repro.isa.program import ProgramBuilder
from repro.snapshot import MachineSnapshot


def program_a():
    b = ProgramBuilder("a")
    b.li("r1", 0).li("r2", 60).li("r3", 91).li("r4", 7)
    b.fli("f1", 9.0).fli("f2", 3.0)
    b.label("loop")
    b.fdiv("f3", "f1", "f2")
    b.div("r5", "r3", "r4")
    b.addi("r1", "r1", 1)
    b.andi("r6", "r1", 1)
    b.li("r7", 0)
    b.beq("r6", "r7", "even")
    b.mul("r8", "r1", "r3")
    b.label("even")
    b.bne("r1", "r2", "loop")
    b.halt()
    return b.build()


def program_b():
    """Shorter than A, with its labels in different places."""
    b = ProgramBuilder("b")
    b.li("r1", 5)
    b.label("spin")
    b.subi("r1", "r1", 1)
    b.li("r2", 0)
    b.bne("r1", "r2", "spin")
    b.halt()
    return b.build()


class EventRecorder:
    """Every observer stage call, in order, as plain tuples."""

    def __init__(self):
        self.events = []

    def _note(self, kind, core, entry, *extra):
        self.events.append((kind, core.cycle, entry.context_id, entry.seq,
                            entry.index) + extra)

    def on_decode(self, core, context, entry):
        self._note("fetch", core, entry)

    def on_issue(self, core, context, entry):
        self._note("issue", core, entry, entry.port_name)

    def on_complete(self, core, context, entry):
        self._note("complete", core, entry, entry.faulted)

    def on_retire(self, core, context, entry):
        self._note("retire", core, entry)

    def on_squash(self, core, context, squashed, reason, trigger):
        self.events.append(("squash", core.cycle, reason,
                            tuple((e.context_id, e.seq) for e in squashed)))


def _machine_running_a(cycles=300):
    machine = Machine()
    machine.contexts[0].load_program(program_a())
    machine.contexts[1].load_program(program_a())
    machine.step(cycles)
    return machine


def _shape(value):
    if isinstance(value, tuple):
        return tuple(_shape(v) for v in value)
    return type(value).__name__


def test_capture_and_digest_ignore_the_table():
    """Neither the capture's shape nor its pickled bytes (the digest
    of its content) depend on the table."""
    machine = _machine_running_a()
    with_table = pickle.dumps(machine.capture())
    shape = _shape(machine.capture())
    for context in machine.contexts:
        assert context.decoded
        context.decoded = ()
    assert _shape(machine.capture()) == shape
    assert pickle.dumps(machine.capture()) == with_table
    assert b"DecodedInstr" not in with_table


def test_restore_rebuilds_the_table_of_the_restored_program():
    reference = _machine_running_a(0)
    recorder = EventRecorder()
    reference.attach(recorder)
    reference.run(200_000)
    assert all(ctx.finished() for ctx in reference.contexts)

    machine = _machine_running_a(0)
    machine.step(150)
    snapshot = MachineSnapshot.take(machine)
    a = machine.contexts[0].program
    for context in machine.contexts:
        context.load_program(program_b())
    snapshot.restore(machine)
    assert machine.contexts[0].program is a
    assert [r.instr for r in machine.contexts[0].decoded] == \
        list(a.instructions)
    resumed = EventRecorder()
    machine.attach(resumed)
    machine.run(200_000)

    assert machine.cycle == reference.cycle
    assert resumed.events == [e for e in recorder.events
                              if e[1] >= 150]
    assert [dict(c.int_regs) for c in machine.contexts] == \
        [dict(c.int_regs) for c in reference.contexts]


def test_restoring_the_same_program_keeps_the_table():
    machine = _machine_running_a(50)
    snapshot = MachineSnapshot.take(machine)
    table = machine.contexts[0].decoded
    machine.step(100)
    snapshot.restore(machine)
    assert machine.contexts[0].decoded is table
