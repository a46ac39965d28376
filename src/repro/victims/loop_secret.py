"""The Loop-Secret victim of Figure 4b.

Each loop iteration loads ``secret[i]`` and performs a transmit access
whose *address* depends on it — ``table[secret[i] * stride]``, the
classic secret-indexed lookup — between a replay handle and a pivot
that live on two *different* public pages.  The challenge the pivot
solves (§4.2.2): the handle maps to the same physical page every
iteration, so without the pivot the attacker could not tell iteration
*i*'s samples from iteration *i+1*'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.isa.program import Program, ProgramBuilder
from repro.kernel.process import Process
from repro.oracle.runtime import note_secret_write
from repro.victims.common import PIVOT, REPLAY_HANDLE, TRANSMIT


@dataclass(frozen=True)
class LoopSecretVictim:
    program: Program
    handle_va: int        # pub_addrA page (replay handle)
    pivot_va: int         # pub_addrB page (pivot), distinct page
    secrets_va: int       # secret value array (enclave-private)
    table_va: int         # lookup table indexed by the secret
    iterations: int
    stride: int

    @property
    def handle_index(self) -> int:
        return self.program.find_one(REPLAY_HANDLE)

    def table_line_va(self, line: int) -> int:
        return self.table_va + line * self.stride


def setup_loop_secret_victim(process: Process, secrets: List[int],
                             table_lines: int = 16,
                             stride: int = 64) -> LoopSecretVictim:
    """Allocate memory and build the Fig. 4b loop.

    ``secrets[i]`` must be in ``[0, table_lines)``; iteration *i*
    touches cache line ``secrets[i]`` of the table.
    """
    if not secrets:
        raise ValueError("need at least one secret")
    if any(not 0 <= s < table_lines for s in secrets):
        raise ValueError("secrets must index the table")
    handle_va = process.alloc(4096, "ls-handleA")
    pivot_va = process.alloc(4096, "ls-pivotB")
    secrets_va = process.alloc(8 * len(secrets), "ls-secrets")
    table_va = process.alloc(stride * table_lines, "ls-table")
    for i, secret in enumerate(secrets):
        process.write(secrets_va + i * 8, int(secret))
    note_secret_write(process, secrets_va, 8 * len(secrets))
    for line in range(table_lines):
        process.write(table_va + line * stride, line)
    program = build_loop_secret_program(
        handle_va, pivot_va, secrets_va, table_va, len(secrets), stride)
    return LoopSecretVictim(program, handle_va, pivot_va, secrets_va,
                            table_va, len(secrets), stride)


def build_loop_secret_program(handle_va: int, pivot_va: int,
                              secrets_va: int, table_va: int,
                              iterations: int, stride: int) -> Program:
    b = ProgramBuilder("loop-secret")
    b.li("r1", handle_va)
    b.li("r2", pivot_va)
    b.li("r3", secrets_va)
    b.li("r4", 0)               # i
    b.li("r5", iterations)
    b.li("r6", stride)
    b.li("r12", table_va)
    b.li("r13", 8)
    b.label("loop")
    # handle(pub_addrA)
    b.load("r7", "r1", 0, comment=REPLAY_HANDLE)
    # load secret[i]
    b.mul("r8", "r4", "r13")
    b.add("r8", "r8", "r3")
    b.load("r9", "r8", 0)
    # transmit(secret[i]): table[secret[i] * stride]
    b.mul("r10", "r9", "r6")
    b.add("r10", "r10", "r12")
    b.load("r11", "r10", 0, comment=TRANSMIT)
    # pivot(pub_addrB)
    b.load("r14", "r2", 0, comment=PIVOT)
    b.addi("r4", "r4", 1)
    b.bne("r4", "r5", "loop")
    b.halt()
    return b.build()
