"""A square-and-multiply modular-exponentiation victim (RSA-style).

The classic side-channel target the paper's related work attacks
([1, 2, 20, 22, 64] all extract crypto exponents): left-to-right-free
LSB-first square-and-multiply::

    result = 1
    while exp != 0:
        if exp & 1:
            result = result * base % mod      # the leaky branch
        base = base * base % mod
        exp >>= 1

The generated program computes a *correct* modexp (validated against
Python's ``pow``) on the simulated core.  Two leakage channels are
faithful to real implementations:

* the divider (our ``div`` performs the reduction) is busier on 1-bit
  iterations — the port channel;
* the multiply path touches its per-iteration operand buffer — bignum
  code reads the multiplier's limbs from memory — giving a cache
  channel with an iteration-dependent line
  (``mult_buffer + (i % 8) * 64``).

Modulus/base fit in 32 bits so products never overflow 64-bit
registers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.program import Program, ProgramBuilder
from repro.kernel.process import Process
from repro.victims.common import PIVOT, REPLAY_HANDLE, TRANSMIT

#: Lines in the multiply operand buffer touched round-robin.
MULT_BUFFER_LINES = 8


@dataclass(frozen=True)
class ModExpVictim:
    program: Program
    handle_va: int
    pivot_va: int
    mult_buffer_va: int    # per-iteration multiply operand lines
    result_va: int
    base: int
    exponent: int
    modulus: int

    @property
    def bits(self) -> int:
        return max(self.exponent.bit_length(), 1)

    def expected_result(self) -> int:
        return pow(self.base, self.exponent, self.modulus)

    def read_result(self, process: Process) -> int:
        return process.read(self.result_va)


def setup_modexp_victim(process: Process, base: int, exponent: int,
                        modulus: int) -> ModExpVictim:
    if not 1 < modulus < (1 << 32):
        raise ValueError("modulus must fit in 32 bits and exceed 1")
    if not 0 < base < modulus:
        raise ValueError("base must be in (0, modulus)")
    if exponent <= 0:
        raise ValueError("exponent must be positive")
    handle_va = process.alloc(4096, "rsa-handle")
    pivot_va = process.alloc(4096, "rsa-pivot")
    mult_buffer_va = process.alloc(64 * MULT_BUFFER_LINES, "rsa-multbuf")
    result_va = process.alloc(4096, "rsa-result")
    for line in range(MULT_BUFFER_LINES):
        process.write(mult_buffer_va + line * 64, line + 1)
    program = build_modexp_program(handle_va, pivot_va, mult_buffer_va,
                                   result_va, base, exponent, modulus)
    return ModExpVictim(program, handle_va, pivot_va, mult_buffer_va,
                        result_va, base, exponent, modulus)


def build_modexp_program(handle_va: int, pivot_va: int,
                         mult_buffer_va: int, result_va: int,
                         base: int, exponent: int,
                         modulus: int) -> Program:
    """Register map: r1 handle, r2 pivot, r3 mult buffer, r4 base,
    r5 exp, r6 mod, r7 result, r8-r12 scratch, r13 iteration, r14
    result page."""
    b = ProgramBuilder("modexp")
    b.li("r1", handle_va)
    b.li("r2", pivot_va)
    b.li("r3", mult_buffer_va)
    b.li("r14", result_va)
    b.li("r4", base)
    b.li("r5", exponent)
    b.li("r6", modulus)
    b.li("r7", 1)
    b.li("r11", 0)
    b.li("r13", 0)
    b.label("loop")
    # Replay handle: a bookkeeping access on its own page.
    b.load("r8", "r1", 0, comment=REPLAY_HANDLE)
    b.andi("r9", "r5", 1)
    b.beq("r9", "r11", "skip_mult")
    # Multiply path: read this iteration's operand line (the cache
    # transmit), then result = result * base % mod.
    b.andi("r10", "r13", MULT_BUFFER_LINES - 1)
    b.shli("r10", "r10", 6)
    b.add("r10", "r10", "r3")
    b.load("r12", "r10", 0, comment=f"{TRANSMIT}-mult-operand")
    b.mul("r7", "r7", "r4", comment=f"{TRANSMIT}-mult")
    b.div("r10", "r7", "r6")
    b.mul("r10", "r10", "r6")
    b.sub("r7", "r7", "r10")
    b.label("skip_mult")
    # Square path (every iteration): base = base * base % mod.
    b.mul("r4", "r4", "r4")
    b.div("r10", "r4", "r6")
    b.mul("r10", "r10", "r6")
    b.sub("r4", "r4", "r10")
    b.shri("r5", "r5", 1)
    b.addi("r13", "r13", 1)
    # Pivot: a second public page, after the transmit (§4.2.2).
    b.load("r8", "r2", 0, comment=PIVOT)
    b.bne("r5", "r11", "loop")
    b.store("r14", "r7", 0)
    b.halt()
    return b.build()
