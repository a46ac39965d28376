"""Micro-ISA: registers, instructions, programs and the assembler."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.isa.instructions import Instruction, Opcode, INSTRUCTION_SIZE
    from repro.isa.program import Program, ProgramBuilder, ProgramError
    from repro.isa.assembler import AssemblerError, assemble, disassemble

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.isa.instructions": ("Instruction", "Opcode", "INSTRUCTION_SIZE"),
    "repro.isa.program": ("Program", "ProgramBuilder", "ProgramError"),
    "repro.isa.assembler": ("AssemblerError", "assemble", "disassemble"),
})

__all__ = [
    "Instruction",
    "Opcode",
    "INSTRUCTION_SIZE",
    "Program",
    "ProgramBuilder",
    "ProgramError",
    "AssemblerError",
    "assemble",
    "disassemble",
]
