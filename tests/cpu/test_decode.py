"""The per-program decode table and the core's construction-time checks
of the port layout and latency table the table is read against."""

import pytest

from repro.config import MachineConfig
from repro.cpu.config import (
    OP_CLASSES,
    CoreConfig,
    PortConfig,
    default_latencies,
    op_class,
)
from repro.cpu.decode import (
    FLOW_BRANCH,
    FLOW_HALT,
    FLOW_JUMP,
    FLOW_NEXT,
    LATENCY_KEYS,
    decode_program,
)
from repro.cpu.machine import Machine
from repro.isa.instructions import Opcode
from repro.isa.program import ProgramBuilder


def loop_program():
    return (ProgramBuilder("loop")
            .li("r1", 0).li("r2", 3).fli("f1", 1.0)
            .label("top")
            .fdiv("f2", "f1", "f1")
            .load("r3", "r1", 8)
            .store("r1", "r3", 16)
            .addi("r1", "r1", 1)
            .fence()
            .rdrand("r4")
            .bne("r1", "r2", "top")
            .jmp("end")
            .nop()
            .label("end")
            .tbegin("end")
            .halt()
            .build())


def test_table_has_one_record_per_index():
    program = loop_program()
    table = decode_program(program)
    assert len(table) == len(program)
    for index, record in enumerate(table):
        instr = program[index]
        assert record.instr is instr
        assert record.op_cls == op_class(instr)
        assert record.is_load == instr.is_load
        assert record.is_store == instr.is_store
        assert (record.flow == FLOW_BRANCH) == instr.is_cond_branch
        assert record.dest == instr.dest()
        assert tuple(reg for _, reg in record.sources) == instr.sources()
        assert record.fence == (instr.op is Opcode.FENCE)
        assert record.rdrand == (instr.op is Opcode.RDRAND)
        if instr.target is None:
            assert record.target is None
        else:
            assert record.target == program.target_index(instr)


def test_flow_kinds_and_latency_keys():
    program = loop_program()
    table = decode_program(program)
    by_op = {record.instr.op: record for record in table}
    assert by_op[Opcode.BNE].flow == FLOW_BRANCH
    assert by_op[Opcode.BNE].target == program.resolve("top")
    assert by_op[Opcode.JMP].flow == FLOW_JUMP
    assert by_op[Opcode.HALT].flow == FLOW_HALT
    assert by_op[Opcode.TBEGIN].flow == FLOW_NEXT
    assert by_op[Opcode.TBEGIN].target == program.resolve("end")
    assert by_op[Opcode.STORE].sources == ((0, "r1"), (1, "r3"))
    assert by_op[Opcode.FDIV].latency_key is None
    assert by_op[Opcode.STORE].latency_key == "store"
    assert by_op[Opcode.LOAD].latency_key == "alu"
    assert by_op[Opcode.RDRAND].latency_key == "rdrand"
    assert by_op[Opcode.ADDI].latency_key == "alu"


def test_no_program_decodes_to_an_empty_table():
    assert decode_program(None) == ()


def test_load_program_builds_the_table():
    machine = Machine()
    context = machine.contexts[0]
    assert context.decoded == ()
    program = loop_program()
    context.load_program(program)
    assert [r.instr for r in context.decoded] == list(program.instructions)


def test_default_latencies_cover_every_key():
    assert LATENCY_KEYS <= default_latencies().keys()


def _machine(**core):
    return Machine(MachineConfig(core=CoreConfig(**core)))


@pytest.mark.parametrize("missing", OP_CLASSES)
def test_each_op_class_needs_a_port(missing):
    """Without a multiply port, ``mul`` once waited in the ready queue
    until ``max_cycles`` and the run ended with its register unwritten."""
    ports = tuple(PortConfig(f"p{i}", frozenset({cls}))
                  for i, cls in enumerate(OP_CLASSES) if cls != missing)
    with pytest.raises(ValueError, match=repr(missing)):
        _machine(ports=ports)


def test_missing_latencies_are_rejected_by_name():
    """Once a KeyError in the middle of a run."""
    latencies = default_latencies()
    del latencies["fdiv_subnormal"]
    del latencies["mul"]
    with pytest.raises(ValueError, match="fdiv_subnormal, mul"):
        _machine(latencies=latencies)


def test_unknown_non_pipelined_class_is_rejected():
    """``"fdiv"`` is an opcode, not an op class: the divider once
    silently became pipelined and Fig. 10 lost its contention."""
    with pytest.raises(ValueError, match="non_pipelined.*'fdiv'"):
        _machine(non_pipelined=frozenset({"fdiv"}))


def test_unknown_port_class_is_rejected():
    ports = (PortConfig("p0", frozenset(OP_CLASSES) | {"sqrt"}),)
    with pytest.raises(ValueError, match="port p0.*'sqrt'"):
        _machine(ports=ports)


@pytest.mark.parametrize("field", ["fetch_width", "issue_width",
                                   "retire_width", "rob_size"])
def test_widths_and_rob_size_must_be_positive(field):
    """``issue_width=0`` once ran to ``max_cycles`` retiring nothing."""
    with pytest.raises(ValueError, match=f"{field} must be at least 1"):
        _machine(**{field: 0})
