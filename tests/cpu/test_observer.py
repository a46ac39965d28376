"""The machine's observer protocol: per-stage dispatch on the core, the
kernel and the memory hierarchy, attach order, gate and trap-claim
short-circuiting, attach/detach bookkeeping, and the two bugs a single
call site per stage fixes."""

from types import SimpleNamespace

import pytest

from repro.core.replayer import AttackEnvironment
from repro.cpu.machine import Machine
from repro.cpu.observer import (
    CORE_STAGES,
    KERNEL_STAGES,
    MEMORY_STAGES,
    STAGES,
    Observer,
    UnitIssueCounter,
)
from repro.cpu.traps import TrapAction
from repro.evaluation.defenses import fences_machine
from repro.isa.program import ProgramBuilder
from repro.kernel.kernel import Kernel
from repro.observability import EventTracer


def _program():
    """Decodes, issues, completes and retires, with one mispredict."""
    return (ProgramBuilder()
            .li("r1", 0).li("r2", 3)
            .label("loop")
            .addi("r1", "r1", 1)
            .mul("r3", "r1", "r1")
            .bne("r1", "r2", "loop")
            .halt().build())


def _dispatch(machine):
    """Every stage's dispatch tuple, read from the layer that fires it."""
    layers = ((machine.core, CORE_STAGES), (machine, KERNEL_STAGES),
              (machine.hierarchy, MEMORY_STAGES))
    return {stage: getattr(layer, "_" + stage)
            for layer, stages in layers for stage in stages}


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
    machine = Machine()
    assert machine.observers == ()
    dispatch = _dispatch(machine)
    assert set(dispatch) == set(STAGES)
    assert all(methods == () for methods in dispatch.values())


def test_dispatch_reaches_only_observers_defining_the_stage():
    machine = Machine()
    retire_only = RetireOnly()
    machine.attach(retire_only)
    dispatch = _dispatch(machine)
    assert dispatch["on_retire"] == (retire_only.on_retire,)
    assert all(methods == () for stage, methods in dispatch.items()
               if stage != "on_retire")
    machine.contexts[0].load_program(_program())
    machine.run(100_000)
    assert retire_only.retired == machine.contexts[0].stats.retired > 0


def test_duck_typed_observer_needs_no_base_class():
    machine = Machine()
    issued = []
    machine.attach(SimpleNamespace(
        on_issue=lambda core, context, entry: issued.append(entry.seq)))
    assert machine.core._on_retire == ()
    machine.contexts[0].load_program(_program())
    machine.run(100_000)
    assert len(issued) == machine.contexts[0].stats.issued > 0


def test_every_stage_fires():
    machine = Machine()
    log = []
    machine.attach(Recorder("a", log))
    machine.contexts[0].load_program(_program())
    machine.run(100_000)
    assert {kind for _name, kind, _arg in log} == {
        "decode", "issue", "complete", "retire", "squash"}
    assert ("a", "squash", "mispredict") in log


def test_decode_observer_sees_each_entry_of_a_fetch_group_alone():
    """Fetch decodes a group in one pass, yet every decode observer
    sees its entry as if it were decoded on its own: counted by
    ``stats.fetched``, pointed at by ``fetch_index``, and not yet in
    the rename map, the ROB, the ready queue or the fence list."""
    seen = []

    class Inspector(Observer):
        def on_decode(self, core, context, entry):
            dest = entry.instr.dest()
            seen.append((
                context.fetch_index == entry.index,
                context.stats.fetched,
                dest is None or context.rename.get(dest) is not entry,
                all(e is not entry for e in context.rob.entries),
                all(e is not entry for e in context.ready),
                entry.seq not in context.fence_seqs))

    machine = Machine()
    machine.attach(Inspector())
    program = (ProgramBuilder().li("r1", 1).fence().addi("r1", "r1", 1)
               .addi("r2", "r1", 2).halt().build())
    machine.contexts[0].load_program(program)
    machine.step()
    assert machine.contexts[0].stats.fetched == 4  # one full group
    machine.run(10_000)
    assert seen == [(True, fetched, True, True, True, True)
                    for fetched in range(1, len(seen) + 1)]
    assert len(seen) == machine.contexts[0].stats.fetched == 5


def test_observers_are_called_in_attach_order():
    machine = Machine()
    log = []
    machine.attach(Recorder("first", log))
    machine.attach(Recorder("second", log))
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

    machine.attach(gate("open", True))
    machine.attach(gate("shut", False))
    machine.attach(gate("never", True))
    machine.contexts[0].load_program(ProgramBuilder().nop().halt().build())
    machine.run(200)
    assert calls and set(calls) == {"open", "shut"}
    assert calls[0::2] == ["open"] * (len(calls) // 2)
    assert machine.contexts[0].stats.issued == 0   # every issue held


# --- attach / detach bookkeeping --------------------------------------------


def test_double_attach_raises():
    machine = Machine()
    observer = Recorder("a", [])
    machine.attach(observer)
    with pytest.raises(ValueError, match="already attached"):
        machine.attach(observer)
    assert machine.observers == (observer,)


def test_detach_of_unattached_observer_raises():
    machine = Machine()
    machine.attach(RetireOnly())
    with pytest.raises(ValueError, match="not attached"):
        machine.detach(Recorder("a", []))
    assert len(machine.observers) == 1


def test_detach_empties_every_stage_tuple():
    machine = Machine()
    observers = [Recorder("a", []), RetireOnly(),
                 SimpleNamespace(gate=lambda core, context, entry: True,
                                 on_pte_race=lambda core, c, e: False),
                 SimpleNamespace(on_fault=lambda core, c, f: None,
                                 on_interrupt=lambda core, c, r: None,
                                 on_mem_access=lambda *access: None)]
    for observer in observers:
        machine.attach(observer)
    assert all(_dispatch(machine).values())   # every layer is watched
    for observer in observers:
        machine.detach(observer)
    assert machine.observers == ()
    assert all(methods == () for methods in _dispatch(machine).values())


def test_detach_keeps_the_others_in_order():
    machine = Machine()
    a, b, c = RetireOnly(), RetireOnly(), RetireOnly()
    for observer in (a, b, c):
        machine.attach(observer)
    machine.detach(b)
    assert machine.observers == (a, c)
    assert machine.core._on_retire == (a.on_retire, c.on_retire)


def test_tracer_detach_restores_untraced_dispatch():
    machine = Machine()
    before = _dispatch(machine)
    tracer = EventTracer()
    machine.attach_tracer(tracer)
    assert machine.observers[-1] is tracer
    machine.attach_tracer(EventTracer())      # replaces, never stacks
    assert tracer not in machine.observers
    machine.detach_tracer()
    assert _dispatch(machine) == before


def test_unit_issue_counter_counts_divider_and_multiplier_on_one_context():
    counter = UnitIssueCounter()
    machine = Machine()
    machine.attach(counter)
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


# --- kernel and memory stages ------------------------------------------------


def _faulting_launch():
    """A machine whose first load page-faults on a non-present page."""
    machine = Machine()
    kernel = Kernel(machine)
    process = kernel.create_process("p")
    data = process.alloc(4096, "data")
    kernel.set_present(process, data, False)
    kernel.launch(process, ProgramBuilder().li("r1", data)
                  .load("r2", "r1", 0).halt().build())
    return machine, kernel, process, data


def test_first_fault_claim_wins_in_attach_order():
    machine, kernel, process, data = _faulting_launch()
    calls = []

    def observer(name, claim):
        def on_fault(core, context, fault):
            assert core is machine.core
            calls.append(name)
            if not claim:
                return None
            kernel.set_present(process, fault.va, True)
            return TrapAction(cost=10)
        return SimpleNamespace(on_fault=on_fault)

    for name, claim in (("pass", False), ("claim", True),
                        ("never", True)):
        machine.attach(observer(name, claim))
    machine.run(100_000)
    assert machine.contexts[0].finished()
    assert calls == ["pass", "claim"]
    assert kernel.stats.page_faults == 1
    assert kernel.stats.hook_claims == 1
    assert kernel.stats.minor_faults == 0   # demand paging skipped


def test_unclaimed_fault_falls_through_to_demand_paging():
    machine, kernel, _process, _data = _faulting_launch()
    seen = []
    machine.attach(SimpleNamespace(
        on_fault=lambda core, context, fault: seen.append(fault.vpn)))
    machine.run(100_000)
    assert machine.contexts[0].finished()
    assert len(seen) == 1
    assert kernel.stats.hook_claims == 0
    assert kernel.stats.minor_faults == 1   # the kernel paged it in


def _interrupted_run(*observers):
    """Cycles to finish a loop that takes one timer interrupt, with
    *observers* attached."""
    machine = Machine()
    kernel = Kernel(machine)
    for observer in observers:
        machine.attach(observer)
    context = kernel.launch(kernel.create_process("p"), ProgramBuilder()
                            .li("r1", 0).li("r2", 50).label("l")
                            .addi("r1", "r1", 1).bne("r1", "r2", "l")
                            .halt().build())
    machine.run(5)
    context.pending_interrupt = "timer"
    machine.run(300_000)
    assert context.finished()
    assert kernel.stats.interrupts == 1
    return machine.cycle


def test_first_interrupt_claim_wins_in_attach_order():
    calls = []

    def observer(name, cost):
        def on_interrupt(core, context, reason):
            calls.append((name, reason))
            return None if cost is None else TrapAction(cost=cost)
        return SimpleNamespace(on_interrupt=on_interrupt)

    default = _interrupted_run()
    claimed = _interrupted_run(observer("pass", None), observer("claim", 1),
                               observer("never", 1))
    assert calls == [("pass", "timer"), ("claim", "timer")]
    assert claimed < default   # the claim's cost replaced the default


def test_unclaimed_interrupt_costs_the_default():
    seen = []
    observer = SimpleNamespace(
        on_interrupt=lambda core, context, reason: seen.append(reason))
    assert _interrupted_run(observer) == _interrupted_run()
    assert seen == ["timer"]


def test_mem_access_is_routed_to_the_hierarchy():
    machine = Machine()
    accesses = []
    observer = SimpleNamespace(
        on_mem_access=lambda *access: accesses.append(access))
    machine.attach(observer)
    assert machine.hierarchy._on_mem_access == (observer.on_mem_access,)
    dram = len(machine.hierarchy.levels)
    latency = machine.hierarchy.access(0x4000, is_write=True)
    machine.hierarchy.access(0x4000)
    assert accesses == [(0x4000, True, dram, latency),
                        (0x4000, False, 0, machine.hierarchy.hit_latency(0))]


def test_kernel_only_observer_leaves_every_core_stage_empty():
    """The MicroScope trampoline and the SGX AEX recorder watch faults
    only: no pipeline stage pays for them, and the non-claiming AEX
    recorder runs before the trampoline."""
    env = AttackEnvironment.build()
    machine = env.machine
    assert machine.observers == (env.sgx, env.module)
    dispatch = _dispatch(machine)
    assert dispatch["on_fault"] == (env.sgx.on_fault, env.module.on_fault)
    assert all(dispatch[stage] == ()
               for stage in CORE_STAGES + MEMORY_STAGES + ("on_interrupt",))


# --- one call site per stage ------------------------------------------------


def test_pte_race_won_load_is_traced_as_completed_normally():
    """The complete stage runs after the PTE race, so a load whose walk
    the OS won completes with its fault cleared, and its traced slice
    is not marked faulted."""
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

    completions = []
    tracer = EventTracer()
    machine.attach(SimpleNamespace(on_pte_race=race))
    machine.attach(SimpleNamespace(
        on_complete=lambda core, context, entry:
        completions.append((entry.index, entry.faulted))))
    machine.attach_tracer(tracer)
    kernel.launch(process, ProgramBuilder().li("r1", data)
                  .load("r2", "r1", 0).halt().build())
    machine.run(100_000)
    assert machine.contexts[0].int_regs["r2"] == 4242
    assert machine.contexts[0].stats.faults == 0
    assert len(races) == 1
    assert (1, False) in completions
    (load,) = tracer.instructions(0, index=1)
    assert load.cat == "pipeline"          # retired
    assert "complete" in load.args
    assert "faulted" not in load.args


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
