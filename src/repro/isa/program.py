"""Programs: ordered instruction sequences with labels.

A :class:`Program` is what the kernel loads into a process' code segment
and what a hardware context fetches from.  Instructions occupy
:data:`~repro.isa.instructions.INSTRUCTION_SIZE` bytes of virtual code
space each, so instruction index *i* of a program loaded at ``code_base``
lives at ``code_base + 4 * i``.

:class:`ProgramBuilder` offers a fluent API used by the victim-program
generators; the text assembler in :mod:`repro.isa.assembler` produces the
same :class:`Program` objects from source text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.isa import instructions as ins
from repro.isa.instructions import Instruction, INSTRUCTION_SIZE


class ProgramError(Exception):
    """Raised for malformed programs (unknown labels, duplicates...)."""


@dataclass
class Program:
    """An immutable, label-resolved instruction sequence."""

    name: str
    instructions: Tuple[Instruction, ...]
    labels: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        for label, index in self.labels.items():
            if not 0 <= index <= len(self.instructions):
                raise ProgramError(
                    f"label {label!r} points outside program: {index}")
        self._validate_targets()

    def _validate_targets(self):
        for i, instr in enumerate(self.instructions):
            if instr.target is not None and instr.target not in self.labels:
                raise ProgramError(
                    f"instruction {i} ({instr}) references unknown label "
                    f"{instr.target!r}")

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    def resolve(self, label: str) -> int:
        """Return the instruction index of *label*."""
        try:
            return self.labels[label]
        except KeyError:
            raise ProgramError(f"unknown label: {label!r}") from None

    def target_index(self, instr: Instruction) -> int:
        """Resolve the branch target of *instr* to an instruction index."""
        if instr.target is None:
            raise ProgramError(f"instruction has no target: {instr}")
        return self.resolve(instr.target)

    def label_at(self, index: int) -> Optional[str]:
        """Return a label attached to instruction *index*, if any."""
        for label, i in self.labels.items():
            if i == index:
                return label
        return None

    def code_size(self) -> int:
        """Size in bytes of the program's code footprint."""
        return len(self.instructions) * INSTRUCTION_SIZE

    def find(self, comment: str) -> List[int]:
        """Return indices of all instructions annotated with *comment*."""
        return [i for i, instr in enumerate(self.instructions)
                if instr.comment == comment]

    def find_one(self, comment: str) -> int:
        """Return the unique instruction index annotated with *comment*."""
        matches = self.find(comment)
        if len(matches) != 1:
            raise ProgramError(
                f"expected exactly one instruction tagged {comment!r}, "
                f"found {len(matches)}")
        return matches[0]

    def listing(self) -> str:
        """Return a human-readable disassembly listing."""
        index_labels: Dict[int, List[str]] = {}
        for label, i in self.labels.items():
            index_labels.setdefault(i, []).append(label)
        lines = []
        for i, instr in enumerate(self.instructions):
            for label in sorted(index_labels.get(i, ())):
                lines.append(f"{label}:")
            lines.append(f"    {instr}")
        for label in sorted(index_labels.get(len(self.instructions), ())):
            lines.append(f"{label}:")
        return "\n".join(lines)


class ProgramBuilder:
    """Fluent builder for :class:`Program` objects.

    Every instruction-constructor from :mod:`repro.isa.instructions` is
    available as a method; each appends one instruction and returns the
    builder so calls can be chained::

        prog = (ProgramBuilder("demo")
                .li("r1", 40)
                .addi("r1", "r1", 2)
                .halt()
                .build())
    """

    def __init__(self, name: str = "program"):
        self.name = name
        self._instructions: List[Instruction] = []
        self._labels: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._instructions)

    def label(self, name: str) -> "ProgramBuilder":
        """Attach *name* to the next instruction."""
        if name in self._labels:
            raise ProgramError(f"duplicate label: {name!r}")
        self._labels[name] = len(self._instructions)
        return self

    def bind_label(self, name: str, index: int) -> "ProgramBuilder":
        """Attach *name* to an explicit instruction index (used by
        program transformations that splice code)."""
        self._labels[name] = index
        return self

    def emit(self, instr: Instruction) -> "ProgramBuilder":
        """Append a pre-built instruction."""
        self._instructions.append(instr)
        return self

    def extend(self, instrs: Iterable[Instruction]) -> "ProgramBuilder":
        """Append several pre-built instructions."""
        self._instructions.extend(instrs)
        return self

    def build(self) -> Program:
        """Finalise and validate the program."""
        return Program(self.name, tuple(self._instructions),
                       dict(self._labels))

    # The arithmetic/memory/control methods below are thin wrappers over
    # the module-level constructors, generated explicitly (not via
    # metaprogramming) so they are discoverable and type-checkable.

    def li(self, rd, imm, comment=""):
        return self.emit(ins.li(rd, imm, comment))

    def fli(self, fd, imm, comment=""):
        return self.emit(ins.fli(fd, imm, comment))

    def mov(self, rd, rs1, comment=""):
        return self.emit(ins.mov(rd, rs1, comment))

    def fmov(self, fd, fs1, comment=""):
        return self.emit(ins.fmov(fd, fs1, comment))

    def add(self, rd, rs1, rs2, comment=""):
        return self.emit(ins.add(rd, rs1, rs2, comment))

    def sub(self, rd, rs1, rs2, comment=""):
        return self.emit(ins.sub(rd, rs1, rs2, comment))

    def and_(self, rd, rs1, rs2, comment=""):
        return self.emit(ins.and_(rd, rs1, rs2, comment))

    def or_(self, rd, rs1, rs2, comment=""):
        return self.emit(ins.or_(rd, rs1, rs2, comment))

    def xor(self, rd, rs1, rs2, comment=""):
        return self.emit(ins.xor(rd, rs1, rs2, comment))

    def shl(self, rd, rs1, rs2, comment=""):
        return self.emit(ins.shl(rd, rs1, rs2, comment))

    def shr(self, rd, rs1, rs2, comment=""):
        return self.emit(ins.shr(rd, rs1, rs2, comment))

    def mul(self, rd, rs1, rs2, comment=""):
        return self.emit(ins.mul(rd, rs1, rs2, comment))

    def div(self, rd, rs1, rs2, comment=""):
        return self.emit(ins.div(rd, rs1, rs2, comment))

    def addi(self, rd, rs1, imm, comment=""):
        return self.emit(ins.addi(rd, rs1, imm, comment))

    def subi(self, rd, rs1, imm, comment=""):
        return self.emit(ins.subi(rd, rs1, imm, comment))

    def andi(self, rd, rs1, imm, comment=""):
        return self.emit(ins.andi(rd, rs1, imm, comment))

    def ori(self, rd, rs1, imm, comment=""):
        return self.emit(ins.ori(rd, rs1, imm, comment))

    def xori(self, rd, rs1, imm, comment=""):
        return self.emit(ins.xori(rd, rs1, imm, comment))

    def shli(self, rd, rs1, imm, comment=""):
        return self.emit(ins.shli(rd, rs1, imm, comment))

    def shri(self, rd, rs1, imm, comment=""):
        return self.emit(ins.shri(rd, rs1, imm, comment))

    def fadd(self, fd, fs1, fs2, comment=""):
        return self.emit(ins.fadd(fd, fs1, fs2, comment))

    def fsub(self, fd, fs1, fs2, comment=""):
        return self.emit(ins.fsub(fd, fs1, fs2, comment))

    def fmul(self, fd, fs1, fs2, comment=""):
        return self.emit(ins.fmul(fd, fs1, fs2, comment))

    def fdiv(self, fd, fs1, fs2, comment=""):
        return self.emit(ins.fdiv(fd, fs1, fs2, comment))

    def load(self, rd, base, offset=0, width=8, comment=""):
        return self.emit(ins.load(rd, base, offset, width, comment))

    def store(self, base, src, offset=0, width=8, comment=""):
        return self.emit(ins.store(base, src, offset, width, comment))

    def fload(self, fd, base, offset=0, width=8, comment=""):
        return self.emit(ins.fload(fd, base, offset, width, comment))

    def fstore(self, base, src, offset=0, width=8, comment=""):
        return self.emit(ins.fstore(base, src, offset, width, comment))

    def beq(self, rs1, rs2, target, comment=""):
        return self.emit(ins.beq(rs1, rs2, target, comment))

    def bne(self, rs1, rs2, target, comment=""):
        return self.emit(ins.bne(rs1, rs2, target, comment))

    def blt(self, rs1, rs2, target, comment=""):
        return self.emit(ins.blt(rs1, rs2, target, comment))

    def bge(self, rs1, rs2, target, comment=""):
        return self.emit(ins.bge(rs1, rs2, target, comment))

    def jmp(self, target, comment=""):
        return self.emit(ins.jmp(target, comment))

    def halt(self, comment=""):
        return self.emit(ins.halt(comment))

    def nop(self, comment=""):
        return self.emit(ins.nop(comment))

    def rdtsc(self, rd, comment=""):
        return self.emit(ins.rdtsc(rd, comment))

    def rdrand(self, rd, comment=""):
        return self.emit(ins.rdrand(rd, comment))

    def fence(self, comment=""):
        return self.emit(ins.fence(comment))

    def tbegin(self, fallback, comment=""):
        return self.emit(ins.tbegin(fallback, comment))

    def tend(self, comment=""):
        return self.emit(ins.tend(comment))

    def tabort(self, comment=""):
        return self.emit(ins.tabort(comment))
