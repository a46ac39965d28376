"""The dispatch stage against a straightforward reference.

``Core._dispatch`` stops its program-order scan at the oldest in-flight
fence, computes an instruction's latency only once a port is free, and
``PortSet.new_cycle`` resets only the ports that issued.  Decode reads
each instruction's facts from the context's per-program decode table.
None of that may change a simulated event.  :class:`ReferenceCore`
below keeps the plain rules instead: every ready entry goes through the
fence check one by one, latency is computed before the port search,
every port is reset every cycle, the SMT round-robin order is rebuilt
each cycle, and decode and latency lookup work from the ``Instruction``
fields on every dynamic instruction, without the table.  Both run the
same programs; the event streams, counters and cycle counts must agree
exactly.
"""

from types import SimpleNamespace

import pytest

from repro.cpu.config import op_class
from repro.cpu.context import ContextState
from repro.cpu.core import Core, _is_subnormal
from repro.cpu.machine import Machine
from repro.cpu.ports import PortSet
from repro.cpu.rob import EntryState, ROBEntry
from repro.evaluation.defenses import fences_machine
from repro.isa.instructions import Opcode
from repro.isa.program import ProgramBuilder
from repro.tools.diffsweep import DATA_BASE, generate_program


class ReferencePortSet(PortSet):
    """Resets every port every cycle; finds and issues in one step."""

    def new_cycle(self):
        for port in self.ports:
            port._issued_this_cycle = False

    def try_issue(self, now, op_cls, latency):
        for port in self._by_class.get(op_cls, ()):
            if port._issued_this_cycle:
                continue
            if now < port.busy_until:
                port.stats.contended += 1
                continue
            port.issue(now, op_cls, latency)
            return port
        return None


class ReferenceCore(Core):
    """Dispatch, fetch, decode and latency lookup without any of the
    per-cycle shortcuts or the decode table."""

    @staticmethod
    def _round_robin(count, start):
        order = list(range(count))
        rotate = start % max(count, 1)
        return order[rotate:] + order[:rotate]

    def _dispatch(self):
        budget = self.config.issue_width
        contexts = self.contexts
        for context_id in self._round_robin(len(contexts), self.cycle):
            if budget <= 0:
                break
            context = contexts[context_id]
            if not context.ready:
                continue
            still_ready = []
            for entry in context.sorted_ready():
                if entry.squashed:
                    continue
                if budget <= 0 or not self._reference_try_execute(
                        context, entry):
                    still_ready.append(entry)
                else:
                    budget -= 1
            context.ready = still_ready

    def _reference_try_execute(self, context, entry):
        fence_seq = context.oldest_fence_seq()
        if fence_seq is not None:
            if entry.seq > fence_seq:
                return False
            if entry.seq == fence_seq and not \
                    context.rob.all_older_completed(entry.seq):
                return False
        if not all(gate(self, context, entry) for gate in self._gate):
            return False
        if entry.instr.is_load:
            if not self._execute_load(context, entry):
                return False
            context.index_inflight_load(entry)
        else:
            latency = self._reference_latency(entry)
            port = self.ports.try_issue(self.cycle, entry.op_cls, latency)
            if port is None:
                return False
            entry.port_name = port.name
            if entry.instr.is_store:
                self._execute_store(context, entry, latency)
            else:
                self._execute_alu(context, entry, latency)
        context.stats.issued += 1
        for observer in self._on_issue:
            observer(self, context, entry)
        return True

    def _fetch(self):
        budget = self.config.fetch_width
        contexts = self.contexts
        cycle = self.cycle
        for context_id in self._round_robin(len(contexts), cycle + 1):
            if budget <= 0:
                break
            context = contexts[context_id]
            if context.state is not ContextState.RUNNING:
                continue
            if cycle < context.fetch_stall_until:
                continue
            while (budget > 0 and not context.rob.full
                   and context.program is not None
                   and context.fetch_index < len(context.program)):
                stop = self._decode_one(context)
                budget -= 1
                if stop:
                    break

    def _reference_latency(self, entry):
        cfg = self.config
        op = entry.instr.op
        if op is Opcode.FDIV:
            a, b = entry.operands
            result_sub = False
            try:
                result_sub = _is_subnormal(float(a) / float(b))
            except (ZeroDivisionError, TypeError, OverflowError):
                pass
            if (_is_subnormal(float(a or 0.0))
                    or _is_subnormal(float(b or 0.0)) or result_sub):
                return cfg.latency_of("fdiv_subnormal")
            return cfg.latency_of("fdiv")
        if op is Opcode.DIV:
            return cfg.latency_of("div")
        if op is Opcode.FMUL:
            return cfg.latency_of("fmul")
        if op is Opcode.MUL:
            return cfg.latency_of("mul")
        if op is Opcode.RDTSC:
            return cfg.latency_of("rdtsc")
        if op is Opcode.RDRAND:
            return cfg.latency_of("rdrand")
        if op in (Opcode.TBEGIN, Opcode.TEND, Opcode.TABORT):
            return cfg.latency_of("tsx")
        if op is Opcode.FENCE:
            return cfg.latency_of("fence")
        if entry.instr.is_store:
            return cfg.latency_of("store")
        return cfg.latency_of(entry.op_cls)

    def _decode_one(self, context):
        program = context.program
        index = context.fetch_index
        instr = program[index]
        entry = ROBEntry(context.next_seq(), context.context_id, index,
                         instr, op_class(instr))
        if index in context.replay_candidates:
            entry.is_replay = True
            context.stats.replays += 1
        context.stats.fetched += 1
        for slot, src in enumerate((instr.rs1, instr.rs2)):
            if src is None:
                continue
            producer = context.rename.get(src)
            if producer is None:
                entry.operands[slot] = context.read_reg(src)
            elif producer.completed and not producer.faulted:
                entry.operands[slot] = producer.value
            else:
                producer.dependents.append((entry, slot))
                entry.pending += 1
        for observer in self._on_decode:
            observer(self, context, entry)
        dest = instr.dest()
        if dest is not None:
            context.rename[dest] = entry
        stop = False
        if instr.op is Opcode.JMP:
            context.fetch_index = program.target_index(instr)
        elif instr.is_cond_branch:
            predicted = self.predictor.predict(index)
            entry.predicted_taken = predicted
            context.fetch_index = (program.target_index(instr) if predicted
                                   else index + 1)
        elif instr.op is Opcode.HALT:
            context.fetch_index = index + 1
            context.fetch_stall_until = float("inf")
            stop = True
        else:
            context.fetch_index = index + 1
        serialize = instr.op is Opcode.FENCE
        if instr.op is Opcode.RDRAND and self.config.rdrand_fenced:
            serialize = True
        if context.serialize_next_fetch:
            serialize = True
            context.serialize_next_fetch = False
        if serialize:
            context.fence_seqs.append(entry.seq)
        context.rob.push(entry)
        if entry.pending == 0:
            entry.state = EntryState.READY
            context.wake(entry)
        return stop


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


def run(programs, *, reference, config=None, gated=False,
        max_cycles=400_000):
    machine = Machine(config)
    if reference:
        machine.core.__class__ = ReferenceCore
        machine.core.ports.__class__ = ReferencePortSet
    recorder = EventRecorder()
    machine.attach(recorder)
    gate_calls = []
    if gated:
        # Holds back divides on every third cycle and logs each
        # consultation: the log must match too.
        def gate(core, context, entry):
            cycle = machine.core.cycle
            gate_calls.append((cycle, context.context_id, entry.seq))
            return not (entry.op_cls == "div" and cycle % 3 == 0)
        machine.attach(SimpleNamespace(gate=gate))
    for context, program in zip(machine.contexts, programs):
        context.load_program(program)
    # The ready queues between steps, squashed entries included.
    queues = []

    def note_queues(m):
        queues.append((m.cycle, [[e.seq for e in ctx.ready]
                                 for ctx in m.contexts]))

    machine.run(max_cycles, until=note_queues)
    return {
        "cycle": machine.cycle,
        "events": recorder.events,
        "queues": queues,
        "gate_calls": gate_calls,
        "ports": [(p.name, p.stats.issued, p.stats.contended)
                  for p in machine.core.ports.ports],
        "contexts": [ctx.stats.as_dict() for ctx in machine.contexts],
        "metrics": machine.metrics.dump(),
        "int_regs": [dict(ctx.int_regs) for ctx in machine.contexts],
        "fp_regs": [{k: repr(v) for k, v in ctx.fp_regs.items()}
                    for ctx in machine.contexts],
        "finished": [ctx.finished() for ctx in machine.contexts],
    }


def assert_equivalent(programs, **kwargs):
    production = run(programs, reference=False, **kwargs)
    reference = run(programs, reference=True, **kwargs)
    assert production["finished"] == reference["finished"]
    assert production["cycle"] == reference["cycle"]
    assert production["ports"] == reference["ports"]
    assert production["contexts"] == reference["contexts"]
    assert production["metrics"] == reference["metrics"]
    assert production["gate_calls"] == reference["gate_calls"]
    assert production["int_regs"] == reference["int_regs"]
    assert production["fp_regs"] == reference["fp_regs"]
    assert production["events"] == reference["events"]
    assert production["queues"] == reference["queues"]
    return production


def _squash_reasons(result):
    return {event[2] for event in result["events"] if event[0] == "squash"}


# --- hand-built programs ----------------------------------------------------


def fence_program(iterations=6, behind=30):
    """A FENCE and a (fenced) RDRAND, each with a long run of
    independent instructions queued up behind it."""
    b = ProgramBuilder("fence-queue")
    b.li("r1", DATA_BASE).li("r2", 96).li("r3", 4).li("r0", iterations)
    b.label("loop")
    b.div("r4", "r2", "r3")
    b.fence()
    for i in range(behind):
        b.addi(f"r{5 + i % 6}", "r2", i)
    b.rdrand("r11")
    for i in range(behind):
        b.xori(f"r{5 + i % 6}", "r3", i)
    b.store("r1", "r11", 0)
    b.subi("r0", "r0", 1)
    b.li("r13", 0)
    b.bne("r0", "r13", "loop")
    b.halt()
    return b.build()


def divider_program(iterations, numerator, denominator):
    """The Fig. 10 shape: a loop of FP divides on the shared,
    non-pipelined divider, with integer divides mixed in."""
    b = ProgramBuilder("divider")
    b.li("r1", 0).li("r2", iterations).li("r3", 91).li("r4", 7)
    b.fli("f1", numerator).fli("f2", denominator)
    b.label("loop")
    b.fdiv("f3", "f1", "f2")
    b.fdiv("f4", "f2", "f1")
    b.div("r5", "r3", "r4")
    b.addi("r1", "r1", 1)
    b.bne("r1", "r2", "loop")
    b.halt()
    return b.build()


def divide_queue_program(iterations, divides=4, alu_ops=3):
    """Independent divides queued behind the busy divider, with ALU
    traffic that also bids for the divider's port, p0."""
    b = ProgramBuilder("divide-queue")
    b.li("r1", 0).li("r2", iterations).li("r3", 91).li("r4", 7)
    b.fli("f1", 9.0).fli("f2", 3.0)
    b.label("loop")
    for i in range(divides):
        b.div(f"r{5 + i}", "r3", "r4")
    b.fdiv("f3", "f1", "f2")
    for i in range(alu_ops):
        b.add(f"r{10 + i % 3}", "r3", "r4")
    b.addi("r1", "r1", 1)
    b.bne("r1", "r2", "loop")
    b.halt()
    return b.build()


def memory_order_program(behind=20):
    """A store whose address waits on a divide, a younger load of the
    same address that issues first, and a fence plus a ready queue
    behind the load.  The store resolves at the head of a dispatch
    scan; the squash takes the fence and everything behind it, while
    six older entries woken with the store stay in the queue and use
    up the issue width, so the scan stops with squashed entries still
    ahead of it."""
    b = ProgramBuilder("memory-order")
    b.li("r1", DATA_BASE).li("r2", 64).li("r3", 8).li("r7", 77)
    b.div("r4", "r2", "r3")       # 8, after the divider's latency
    b.add("r5", "r1", "r4")       # the store's address, resolved late
    b.store("r5", "r7", 0)        # [DATA_BASE + 8] <- 77
    for reg in ("r9", "r12", "r13", "r14"):
        b.add(reg, "r5", "r5")    # wake with the store, behind it
    b.load("r8", "r5", 64)
    b.add("r15", "r5", "r5")      # no issue width left for this one
    b.load("r6", "r1", 8)         # runs ahead, speculating no alias
    b.addi("r10", "r6", 1)
    b.fence()
    for i in range(behind):
        b.addi(f"r{11 + i % 2}", "r2", i)
    b.halt()
    return b.build()


def test_fence_and_fenced_rdrand_with_long_ready_queues():
    result = assert_equivalent([fence_program()])
    assert result["finished"][0]


def test_fence_queues_on_both_contexts():
    assert_equivalent([fence_program(4), fence_program(5, behind=12)])


def test_smt_divider_contention_pair():
    result = assert_equivalent([divider_program(40, 9.0, 3.0),
                                divider_program(40, 9.0, 3.0)])
    divider = [p for p in result["ports"] if p[0] == "p0"][0]
    assert divider[2] > 0   # the contexts really fought over it


def test_smt_divider_with_subnormal_operands():
    assert_equivalent([divider_program(25, 9.0, 3.0),
                       divider_program(25, 5e-310, 3.0)])


@pytest.mark.parametrize("gated", [False, True])
def test_smt_divide_queues_on_the_shared_divider(monkeypatch, gated):
    """Several divides per context wait on the divider in the same
    cycles.  Production searches the ports once per class and cycle
    and counts the later divides that pass the gates from that record;
    the reference searches for every one."""
    searches = {"production": 0, "reference": 0}
    find, reference_issue = PortSet.find, ReferencePortSet.try_issue

    def counting_find(self, now, op_cls):
        searches["production"] += op_cls == "div"
        return find(self, now, op_cls)

    def counting_issue(self, now, op_cls, latency):
        searches["reference"] += op_cls == "div"
        return reference_issue(self, now, op_cls, latency)

    monkeypatch.setattr(PortSet, "find", counting_find)
    monkeypatch.setattr(ReferencePortSet, "try_issue", counting_issue)
    result = assert_equivalent([divide_queue_program(12),
                                divide_queue_program(10, divides=3)],
                               gated=gated)
    divider = [p for p in result["ports"] if p[0] == "p0"][0]
    assert divider[2] > 0
    if gated:
        assert result["gate_calls"]
    assert searches["production"] < searches["reference"]


def test_memory_order_squash_mid_dispatch():
    result = assert_equivalent([memory_order_program()])
    assert "memory-order" in _squash_reasons(result)
    assert result["int_regs"][0]["r6"] == 77


def test_memory_order_squash_beside_a_divider_sibling():
    result = assert_equivalent([memory_order_program(),
                                divider_program(20, 9.0, 3.0)])
    assert "memory-order" in _squash_reasons(result)


def test_issue_gate_consultations_match():
    result = assert_equivalent([fence_program(3),
                                divider_program(20, 9.0, 3.0)],
                               gated=True)
    assert result["gate_calls"]


def test_fast_forward_and_fence_on_flush():
    assert_equivalent([generate_program(3), fence_program(3)],
                      config=fences_machine())


# --- seeded random programs -------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_diffsweep_program(seed):
    result = assert_equivalent([generate_program(seed)])
    assert result["finished"][0]


@pytest.mark.parametrize("seed", range(8, 14))
def test_diffsweep_program_pair(seed):
    assert_equivalent([generate_program(seed),
                       generate_program(seed + 100)])


@pytest.mark.parametrize("seed", range(14, 18))
def test_diffsweep_program_fence_on_flush(seed):
    assert_equivalent([generate_program(seed)], config=fences_machine())


def test_reference_scans_past_the_fence():
    """Guard against the reference silently taking the production
    path: it must offer entries younger than the fence to the fence
    check, which production never does."""
    machine = Machine()
    core = machine.core
    core.__class__ = ReferenceCore
    behind_fence = []
    check = core._reference_try_execute

    def noting(context, entry):
        fence_seq = context.oldest_fence_seq()
        if fence_seq is not None and entry.seq > fence_seq:
            behind_fence.append(entry.seq)
        return check(context, entry)

    core._reference_try_execute = noting
    machine.contexts[0].load_program(fence_program(1))
    machine.run(50_000)
    assert behind_fence
