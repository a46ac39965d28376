"""Precise page-fault semantics — the mechanism MicroScope turns into
a replay engine."""

from types import SimpleNamespace

from repro.cpu.context import ContextState
from repro.cpu.machine import Machine
from repro.cpu.traps import TrapAction, TrapHandler
from repro.isa.instructions import Opcode
from repro.isa.program import ProgramBuilder
from repro.kernel.kernel import Kernel


class CountingHandler(TrapHandler):
    """Counts faults; fixes the page after *fix_after* of them."""

    def __init__(self, kernel, process, va, fix_after=1, cost=100):
        self.kernel = kernel
        self.process = process
        self.va = va
        self.fix_after = fix_after
        self.cost = cost
        self.faults = []

    def handle_page_fault(self, context, fault):
        self.faults.append(fault)
        if len(self.faults) >= self.fix_after:
            self.kernel.set_present(self.process, self.va, True)
        else:
            self.kernel.set_present(self.process, self.va, False)
        return TrapAction(cost=self.cost)

    def handle_interrupt(self, context, reason):
        return TrapAction(cost=self.cost)


def faulting_setup(fix_after=1):
    machine = Machine()
    kernel = Kernel(machine)
    process = kernel.create_process("victim")
    data = process.alloc(4096, "data")
    process.write(data, 4242)
    kernel.set_present(process, data, False)
    machine.hierarchy.flush_all()
    machine.pwc.flush_all()
    handler = CountingHandler(kernel, process, data, fix_after)
    machine.set_trap_handler(handler)
    return machine, kernel, process, data, handler


def test_fault_resumes_at_faulting_instruction():
    machine, kernel, process, data, handler = faulting_setup()
    program = (ProgramBuilder()
               .li("r1", data)
               .load("r2", "r1", 0)
               .addi("r3", "r2", 1)
               .halt().build())
    kernel.launch(process, program)
    machine.run(100_000)
    assert len(handler.faults) == 1
    assert machine.contexts[0].int_regs["r2"] == 4242
    assert machine.contexts[0].int_regs["r3"] == 4243


def test_repeated_faults_replay_instruction():
    machine, kernel, process, data, handler = faulting_setup(fix_after=5)
    program = (ProgramBuilder()
               .li("r1", data)
               .load("r2", "r1", 0)
               .halt().build())
    kernel.launch(process, program)
    machine.run(200_000)
    assert len(handler.faults) == 5
    assert machine.contexts[0].int_regs["r2"] == 4242
    # The load's dynamic instance re-fetched at least 4 times.
    assert machine.contexts[0].stats.replays >= 4


def test_younger_instructions_execute_in_walk_shadow():
    """Independent younger code runs (and leaves port residue) while
    the faulting load's walk is outstanding — the attack's window."""
    machine, kernel, process, data, handler = faulting_setup(fix_after=3)
    issued_divs = []

    def observer(core, context, entry):
        if entry.instr.op is Opcode.FDIV:
            issued_divs.append(machine.cycle)

    machine.attach(SimpleNamespace(on_issue=observer))
    program = (ProgramBuilder()
               .li("r1", data)
               .fli("f1", 8.0).fli("f2", 2.0)
               .load("r2", "r1", 0)
               .fdiv("f3", "f1", "f2")    # independent of the load
               .halt().build())
    kernel.launch(process, program)
    machine.run(200_000)
    # Speculative executions per fault + the final architectural one.
    assert len(issued_divs) >= 3


def test_dependent_instructions_do_not_execute():
    machine, kernel, process, data, handler = faulting_setup(fix_after=3)
    issued_muls = []

    def observer(core, context, entry):
        if entry.instr.op is Opcode.MUL:
            issued_muls.append(machine.cycle)

    machine.attach(SimpleNamespace(on_issue=observer))
    program = (ProgramBuilder()
               .li("r1", data)
               .load("r2", "r1", 0)
               .mul("r3", "r2", "r2")     # depends on the faulting load
               .halt().build())
    kernel.launch(process, program)
    machine.run(200_000)
    # Only the final, non-faulting execution can issue the mul.
    assert len(issued_muls) == 1
    assert machine.contexts[0].int_regs["r3"] == 4242 * 4242


def test_speculative_loads_fill_caches_despite_squash():
    """The cache side effects of squashed loads persist — the transmit
    channel."""
    machine, kernel, process, data, handler = faulting_setup(fix_after=2)
    other = process.alloc(4096, "other")
    other_paddr = process.translate_any(other)
    program = (ProgramBuilder()
               .li("r1", data)
               .li("r4", other)
               .load("r2", "r1", 0)       # faults
               .load("r5", "r4", 0)       # independent: speculative
               .halt().build())
    kernel.launch(process, program)
    # Run until the first fault is handled (present still clear).
    machine.run(10_000, until=lambda m: len(handler.faults) >= 1)
    assert machine.hierarchy.peek_level(other_paddr) == 0


def test_blocked_context_consumes_kernel_time():
    machine, kernel, process, data, handler = faulting_setup()
    handler.cost = 5000
    program = (ProgramBuilder()
               .li("r1", data).load("r2", "r1", 0).halt().build())
    kernel.launch(process, program)
    machine.run(100_000)
    assert machine.cycle >= 5000


def test_halt_action_stops_context():
    machine = Machine()
    kernel = Kernel(machine)
    process = kernel.create_process("victim")

    class HaltingHandler(TrapHandler):
        def handle_page_fault(self, context, fault):
            return TrapAction(cost=10, halt=True)

        def handle_interrupt(self, context, reason):
            return TrapAction()

    machine.set_trap_handler(HaltingHandler())
    program = (ProgramBuilder()
               .li("r1", 0x7000_0000)     # unmapped address
               .load("r2", "r1", 0)
               .halt().build())
    kernel.launch(process, program)
    machine.run(100_000)
    assert machine.contexts[0].state is ContextState.HALTED


def test_interrupt_squashes_and_resumes():
    machine = Machine()
    kernel = Kernel(machine)
    process = kernel.create_process("p")
    program = (ProgramBuilder()
               .li("r1", 0).li("r2", 100)
               .label("loop")
               .addi("r1", "r1", 1)
               .bne("r1", "r2", "loop")
               .halt().build())
    context = kernel.launch(process, program)
    machine.run(30)
    context.pending_interrupt = "timer"
    machine.run(200_000)
    assert context.int_regs["r1"] == 100
    assert context.stats.interrupts == 1
    assert kernel.stats.interrupts == 1
