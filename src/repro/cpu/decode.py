"""The decode table: what the core needs to know about each static
instruction, computed once per loaded program.

Fetch, execute and retire meet the same instruction many times — every
loop iteration and every replay re-decodes it.  Its port class, latency
key, load/store flags, control-flow kind and target, and register
operands never change, so :func:`decode_program` works them out once
per program index and the pipeline reads them by ``entry.index``.

The table is derived state: :class:`~repro.cpu.context.HardwareContext`
builds it when a program is loaded (and when a restore brings back a
different program).  It never enters a snapshot, a ``ROBEntry`` or a
memo key.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.cpu.config import op_class
from repro.isa.instructions import COND_BRANCHES, Instruction, Opcode
from repro.isa.program import Program

__all__ = ["DecodedInstr", "FLOW_BRANCH", "FLOW_HALT", "FLOW_JUMP",
           "FLOW_NEXT", "LATENCY_KEYS", "decode_program"]

#: Control-flow kinds: fall through to the next index, jump to
#: ``target``, branch to ``target`` on a prediction, or stop at HALT.
FLOW_NEXT, FLOW_JUMP, FLOW_BRANCH, FLOW_HALT = range(4)

#: Latency keys of the opcodes whose latency is not their port class's.
#: ``FDIV`` maps to ``None``: its latency depends on its operands.
_SPECIAL_LATENCY = {
    Opcode.FDIV: None,
    Opcode.DIV: "div",
    Opcode.FMUL: "fmul",
    Opcode.MUL: "mul",
    Opcode.RDTSC: "rdtsc",
    Opcode.RDRAND: "rdrand",
    Opcode.TBEGIN: "tsx",
    Opcode.TEND: "tsx",
    Opcode.TABORT: "tsx",
    Opcode.FENCE: "fence",
    Opcode.STORE: "store",
    Opcode.FSTORE: "store",
    # A load holds its port for one ALU cycle (Core._execute_load); the
    # access itself is timed by the TLBs, the walker and the caches.
    Opcode.LOAD: "alu",
    Opcode.FLOAD: "alu",
}


def _latency_key(instr: Instruction) -> Optional[str]:
    """The ``CoreConfig.latencies`` key that times *instr*, or ``None``
    for ``FDIV`` (``fdiv`` or ``fdiv_subnormal``, by operand)."""
    if instr.op in _SPECIAL_LATENCY:
        return _SPECIAL_LATENCY[instr.op]
    return op_class(instr)


#: Every latency key the core can look up: the key of each opcode, the
#: two FDIV latencies and store-to-load forwarding.
LATENCY_KEYS = frozenset(
    {_latency_key(Instruction(op)) for op in Opcode} - {None}
    | {"fdiv", "fdiv_subnormal", "forward"})


class DecodedInstr:
    """The static facts of one program instruction."""

    __slots__ = ("instr", "op_cls", "latency_key", "is_load", "is_store",
                 "flow", "target", "fence", "rdrand", "sources", "dest")

    def __init__(self, instr: Instruction, target: Optional[int]):
        op = instr.op
        self.instr = instr
        #: Port class (one of ``OP_CLASSES``).
        self.op_cls = op_class(instr)
        self.latency_key = _latency_key(instr)
        self.is_load = self.op_cls == "load"
        self.is_store = self.op_cls == "store"
        if op is Opcode.JMP:
            self.flow = FLOW_JUMP
        elif op in COND_BRANCHES:
            self.flow = FLOW_BRANCH
        elif op is Opcode.HALT:
            self.flow = FLOW_HALT
        else:
            self.flow = FLOW_NEXT
        #: Resolved target index (branches, jumps, TBEGIN's fallback).
        self.target = target
        self.fence = op is Opcode.FENCE
        self.rdrand = op is Opcode.RDRAND
        #: ``(operand slot, register)`` for each source register.
        self.sources: Tuple[Tuple[int, str], ...] = tuple(
            (slot, reg) for slot, reg in enumerate((instr.rs1, instr.rs2))
            if reg is not None)
        self.dest: Optional[str] = instr.dest()


def decode_program(program: Optional[Program]
                   ) -> Tuple[DecodedInstr, ...]:
    """The decode table of *program*: one record per index."""
    if program is None:
        return ()
    return tuple(
        DecodedInstr(instr, program.target_index(instr)
                     if instr.target is not None else None)
        for instr in program.instructions)
