
from types import SimpleNamespace

from repro.cpu.context import ContextState
from repro.cpu.traps import TrapAction
from repro.isa.program import ProgramBuilder
from repro.kernel.kernel import Kernel, KernelConfig
from repro.cpu.machine import Machine


def test_kernel_attaches_as_trap_handler(system):
    machine, kernel = system
    assert machine.core.trap_handler is kernel


def test_demand_paging_of_lazy_region(system):
    machine, kernel = system
    process = kernel.create_process("p")
    base = process.alloc(4096, "lazy", populate=False)
    program = (ProgramBuilder()
               .li("r1", base)
               .li("r2", 5)
               .store("r1", "r2", 0)
               .load("r3", "r1", 0)
               .halt().build())
    kernel.launch(process, program)
    machine.run(200_000)
    assert machine.contexts[0].int_regs["r3"] == 5
    assert kernel.stats.demand_pages == 1


def test_minor_fault_on_cleared_present(system):
    machine, kernel = system
    process = kernel.create_process("p")
    base = process.alloc(4096, "data")
    process.write(base, 31337)
    kernel.set_present(process, base, False)
    machine.hierarchy.flush_all()
    machine.pwc.flush_all()
    program = (ProgramBuilder()
               .li("r1", base).load("r2", "r1", 0).halt().build())
    kernel.launch(process, program)
    machine.run(200_000)
    assert machine.contexts[0].int_regs["r2"] == 31337
    assert kernel.stats.minor_faults == 1


def test_segfault_kills_process(system):
    machine, kernel = system
    process = kernel.create_process("p")
    program = (ProgramBuilder()
               .li("r1", 0x7000_0000)
               .load("r2", "r1", 0)
               .halt().build())
    kernel.launch(process, program)
    machine.run(200_000)
    assert process.terminated
    assert kernel.stats.segfaults == 1
    assert machine.contexts[0].state is ContextState.HALTED


def test_fault_hook_claims_before_default():
    machine = Machine()
    kernel = Kernel(machine)
    process = kernel.create_process("p")
    base = process.alloc(4096, "data")
    kernel.set_present(process, base, False)
    machine.hierarchy.flush_all()
    machine.pwc.flush_all()
    claimed = []

    def on_fault(core, context, fault):
        claimed.append(fault.vpn)
        kernel.set_present(process, fault.va, True)
        return TrapAction(cost=10)

    machine.attach(SimpleNamespace(on_fault=on_fault))
    program = (ProgramBuilder()
               .li("r1", base).load("r2", "r1", 0).halt().build())
    kernel.launch(process, program)
    machine.run(100_000)
    assert claimed  # the hook saw the fault
    assert kernel.stats.hook_claims == 1
    assert kernel.stats.minor_faults == 0  # default path skipped


def test_remove_fault_hook():
    machine = Machine()
    Kernel(machine)
    observer = SimpleNamespace(on_fault=lambda core, c, f: None)
    machine.attach(observer)
    assert machine._on_fault == (observer.on_fault,)
    machine.detach(observer)
    assert observer not in machine.observers
    assert machine._on_fault == ()


def test_invlpg_keeps_tlb_coherent(system):
    """§2.1: after a PTE update the OS must invalidate the TLB entry,
    or the stale translation keeps working."""
    machine, kernel = system
    process = kernel.create_process("p")
    base = process.alloc(4096, "data")
    program = (ProgramBuilder()
               .li("r1", base).load("r2", "r1", 0).halt().build())
    kernel.launch(process, program)
    machine.run(100_000)
    from repro.vm import address as vaddr
    assert machine.tlbs.l1d.contains(process.pcid, vaddr.vpn(base))
    kernel.set_present(process, base, False)  # flush=True default
    assert not machine.tlbs.l1d.contains(process.pcid, vaddr.vpn(base))


def test_flush_tlbs_per_process(system):
    machine, kernel = system
    p1 = kernel.create_process("a")
    p2 = kernel.create_process("b")
    machine.tlbs.insert(p1.pcid, 5, frame=1)
    machine.tlbs.insert(p2.pcid, 5, frame=2)
    kernel.flush_tlbs(p1)
    assert not machine.tlbs.l2.contains(p1.pcid, 5)
    assert machine.tlbs.l2.contains(p2.pcid, 5)
    kernel.flush_tlbs()
    assert not machine.tlbs.l2.contains(p2.pcid, 5)


def test_cost_jitter_is_seeded():
    def total_cost(seed):
        machine = Machine()
        kernel = Kernel(machine, KernelConfig(cost_jitter=500,
                                              jitter_seed=seed))
        process = kernel.create_process("p")
        base = process.alloc(4096, "lazy", populate=False)
        program = (ProgramBuilder()
                   .li("r1", base).load("r2", "r1", 0).halt().build())
        kernel.launch(process, program)
        machine.run(300_000)
        return machine.cycle

    assert total_cost(1) == total_cost(1)


def test_interrupt_default_cost(system):
    machine, kernel = system
    process = kernel.create_process("p")
    program = (ProgramBuilder()
               .li("r1", 0).li("r2", 50)
               .label("l").addi("r1", "r1", 1).bne("r1", "r2", "l")
               .halt().build())
    context = kernel.launch(process, program)
    machine.run(5)
    context.pending_interrupt = "timer"
    machine.run(300_000)
    assert context.finished()
    assert machine.cycle >= kernel.config.interrupt_cost
