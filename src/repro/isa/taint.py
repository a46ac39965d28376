"""Taint-tracking layer over the sequential golden-model interpreter.

The architectural counterpart of the OOO-core oracle in
:mod:`repro.oracle.tracker`: secrets are registered as tainted memory
(exact words or regions) and taint propagates through register and
memory dataflow as the program executes.  Control taint folds into
data here — after a branch on tainted data *every* subsequently
written value is tainted — which over-approximates harder than the
core-side oracle but keeps the sequential model a sound upper bound:
a value the OOO oracle commits as tainted is tainted here too.

Nothing in the package imports it: the oracle unit tests use it to pin
the propagation rules on hand-built programs, and ``docs/ORACLE.md``
shows it as the architectural reference.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.isa.instructions import Opcode
from repro.isa.interpreter import MASK64, Interpreter
from repro.isa.program import Program


class TaintedInterpreter(Interpreter):
    """Golden-model interpreter with architectural taint tracking."""

    def __init__(self, program: Program, rdrand_seed: int = 0xC0FFEE,
                 memory: Optional[Dict[int, object]] = None):
        super().__init__(program, rdrand_seed, memory)
        #: Tainted integer/float registers, by name.
        self.reg_taint: Set[str] = set()
        #: Tainted memory words, by exact virtual address.
        self.mem_taint: Set[int] = set()
        #: Registered secret regions, half-open ``[start, end)``.
        self.regions: List[Tuple[int, int]] = []
        #: Sticky control taint: a branch depended on tainted data.
        self.control = False

    # --- seeding / queries --------------------------------------------

    def taint_region(self, va: int, size: int = 8) -> None:
        """Mark ``[va, va+size)`` as secret."""
        self.regions.append((va, va + size))

    def taint_register(self, name: str) -> None:
        """Mark register *name* as tainted."""
        self.reg_taint.add(name)

    def tainted_reg(self, name: str) -> bool:
        """Is register *name* tainted?"""
        return name in self.reg_taint

    def tainted_mem(self, va: int) -> bool:
        """Is the word at *va* tainted (exact word or secret region)?"""
        if va in self.mem_taint:
            return True
        return any(start <= va < end for start, end in self.regions)

    # --- propagation --------------------------------------------------

    def _step(self, pc: int) -> Optional[int]:
        self._propagate(self.program[pc])
        return super()._step(pc)

    def _propagate(self, instr) -> None:
        op = instr.op
        src = ((instr.rs1 in self.reg_taint if instr.rs1 else False)
               or (instr.rs2 in self.reg_taint if instr.rs2 else False))
        if instr.is_cond_branch:
            if src:
                self.control = True
            return
        if op in (Opcode.LOAD, Opcode.FLOAD):
            va = (self.state.read(instr.rs1) + instr.imm) & MASK64
            taint = src or self.control or self.tainted_mem(va)
            self._set_reg_taint(instr.rd, taint)
            return
        if op in (Opcode.STORE, Opcode.FSTORE):
            va = (self.state.read(instr.rs1) + instr.imm) & MASK64
            if src or self.control:
                self.mem_taint.add(va)
            else:
                self.mem_taint.discard(va)
            return
        dest = instr.dest()
        if dest is None:
            return
        if op in (Opcode.LI, Opcode.FLI, Opcode.RDTSC, Opcode.RDRAND):
            # Immediate / environment sources carry no data taint, but
            # reaching them can already be secret-dependent.
            self._set_reg_taint(dest, self.control)
            return
        self._set_reg_taint(dest, src or self.control)

    def _set_reg_taint(self, name: str, taint: bool) -> None:
        if taint:
            self.reg_taint.add(name)
        else:
            self.reg_taint.discard(name)
