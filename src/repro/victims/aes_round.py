"""The AES decryption victim of Section 4.4.

This module compiles OpenSSL-0.9.8-style table-based AES decryption to
the micro-ISA.  The generated program is *functionally correct* — its
output is validated against :mod:`repro.crypto` — and structurally
faithful to Figure 8a:

* the four Td tables live on four distinct pages (1 KiB each: 16 cache
  lines of 16 entries);
* the ``rk`` round-key array lives on its own page, so any rk access
  can serve as a replay handle and any Td access as a pivot;
* each middle round is one loop iteration computing ``t0..t3`` from
  ``s0..s3`` with four Td lookups plus one rk load per statement, the
  rk load trailing the statement exactly as in the paper's Line 3.

Register map::

    r0  stack base (loop counter spills)  r10, r11  scratch
    r1  rk cursor                          r12..r15  t0..t3
    r2..r5  Td0..Td3 bases
    r6..r9  s0..s3
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.crypto.aes import expand_decrypt_key, rounds_for_key
from repro.crypto.aes_tables import inv_sbox, td_tables
from repro.isa.program import Program, ProgramBuilder
from repro.kernel.process import Process
from repro.oracle.runtime import note_secret_write
from repro.victims.common import PIVOT, REPLAY_HANDLE


@dataclass(frozen=True)
class AESVictim:
    """Built AES victim plus its (attacker-known) memory layout."""

    program: Program
    rk_va: int
    td_vas: Tuple[int, int, int, int]
    td4_va: int
    input_va: int
    output_va: int
    stack_va: int
    rounds: int

    def read_plaintext(self, process: Process) -> bytes:
        words = [process.read(self.output_va + 4 * i, 4) for i in range(4)]
        return b"".join(int(w).to_bytes(4, "big") for w in words)

    def write_ciphertext(self, process: Process, ciphertext: bytes):
        """(Re)write the input block.  The program embeds only the
        buffer's address, so a snapshot of a launched victim can be
        retargeted at a new ciphertext by rewriting these four words."""
        for i in range(4):
            process.write(self.input_va + 4 * i,
                          int.from_bytes(ciphertext[4 * i:4 * i + 4],
                                         "big"),
                          width=4)
        note_secret_write(process, self.input_va, 16)


def setup_aes_victim(process: Process, key: bytes,
                     ciphertext: bytes) -> AESVictim:
    """Allocate all AES memory, write tables/keys/input, and build the
    decryption program."""
    rounds = rounds_for_key(key)
    rk = expand_decrypt_key(key)
    tds = td_tables()
    td_vas = []
    for t in range(4):
        va = process.alloc(1024, f"aes-Td{t}")
        process.write_words(va, tds[t], width=4)
        td_vas.append(va)
    td4_va = process.alloc(1024, "aes-Td4")
    process.write_words(td4_va, inv_sbox(), width=4)
    rk_va = process.alloc(4 * len(rk), "aes-rk")
    process.write_words(rk_va, rk, width=4)
    # The expanded key schedule is enclave-held secret material.
    note_secret_write(process, rk_va, 4 * len(rk))
    input_va = process.alloc(4096, "aes-input")
    output_va = process.alloc(4096, "aes-output")
    stack_va = process.alloc(4096, "aes-stack")
    program = build_aes_decrypt_program(
        rk_va, tuple(td_vas), td4_va, input_va, output_va, stack_va,
        rounds)
    victim = AESVictim(program, rk_va, tuple(td_vas), td4_va, input_va,
                       output_va, stack_va, rounds)
    victim.write_ciphertext(process, ciphertext)
    return victim


#: (source state register offsets) per statement: which s word feeds
#: byte positions 24, 16, 8, 0 — the Fig. 8a indexing pattern.
_STATEMENT_SOURCES = (
    (0, 3, 2, 1),   # t0 = Td0[s0>>24] ^ Td1[s3>>16] ^ Td2[s2>>8] ^ Td3[s1]
    (1, 0, 3, 2),   # t1
    (2, 1, 0, 3),   # t2
    (3, 2, 1, 0),   # t3
)
_SHIFTS = (24, 16, 8, 0)


def build_aes_decrypt_program(rk_va: int, td_vas: Tuple[int, ...],
                              td4_va: int, input_va: int, output_va: int,
                              stack_va: int, rounds: int) -> Program:
    b = ProgramBuilder("aes-decrypt")
    _emit_prologue(b, rk_va, td_vas, input_va, stack_va, rounds)
    _emit_round_loop(b)
    _emit_final_round(b, td4_va, output_va, rounds, rk_va)
    b.halt()
    return b.build()


def _emit_prologue(b: ProgramBuilder, rk_va: int, td_vas, input_va: int,
                   stack_va: int, rounds: int):
    b.li("r0", stack_va)
    b.li("r1", rk_va)
    for t in range(4):
        b.li(f"r{2 + t}", td_vas[t])
    # Loop trip count (middle rounds) spilled to the stack.
    b.li("r10", rounds - 1)
    b.store("r0", "r10", 0)
    # Initial AddRoundKey: s_i = ct_i ^ rk[i].
    b.li("r10", input_va)
    for i in range(4):
        b.load(f"r{6 + i}", "r10", 4 * i, width=4)
        b.load("r11", "r1", 4 * i, width=4)
        b.xor(f"r{6 + i}", f"r{6 + i}", "r11")


def _emit_round_loop(b: ProgramBuilder):
    b.label("round_loop")
    for stmt, sources in enumerate(_STATEMENT_SOURCES):
        acc = f"r{12 + stmt}"
        for table, (src, shift) in enumerate(zip(sources, _SHIFTS)):
            state_reg = f"r{6 + src}"
            tag = f"td{table}-s{stmt}"
            if stmt == 1 and table == 0:
                tag = f"{PIVOT} {tag}"  # Td0 in the t1 statement (§4.4)
            b.shri("r10", state_reg, shift)
            if shift != 24:
                b.andi("r10", "r10", 0xFF)
            b.shli("r10", "r10", 2)
            b.add("r10", "r10", f"r{2 + table}")
            if table == 0:
                b.load(acc, "r10", 0, width=4, comment=tag)
            else:
                b.load("r11", "r10", 0, width=4, comment=tag)
                b.xor(acc, acc, "r11")
        # rk[4 + stmt] relative to the cursor: trails the statement, as
        # in the paper's Line 3 — this is the replay handle.
        tag = f"rk-s{stmt}"
        if stmt == 0:
            tag = f"{REPLAY_HANDLE} {tag}"
        b.load("r11", "r1", 16 + 4 * stmt, width=4, comment=tag)
        b.xor(acc, acc, "r11")
    # s <- t ; advance the rk cursor by one round (rk += 4 words).
    for i in range(4):
        b.mov(f"r{6 + i}", f"r{12 + i}")
    b.addi("r1", "r1", 16)
    # Spilled loop counter.
    b.load("r10", "r0", 0)
    b.subi("r10", "r10", 1)
    b.store("r0", "r10", 0)
    b.li("r11", 0)
    b.bne("r10", "r11", "round_loop")


#: Final-round byte sources: out_i takes bytes from state words
#: (i, i-1, i-2, i-3) mod 4 at byte positions 24, 16, 8, 0.
_FINAL_SOURCES = tuple(
    tuple((i - k) % 4 for k in range(4)) for i in range(4))


def _emit_final_round(b: ProgramBuilder, td4_va: int, output_va: int,
                      rounds: int, rk_va: int):
    # After the loop, r1 = rk_va + 16*(rounds-1); the final-round keys
    # are at cursor offset 16.  Td bases are dead: reuse r2/r3.
    b.li("r2", td4_va)
    b.li("r3", output_va)
    for i, sources in enumerate(_FINAL_SOURCES):
        acc = f"r{12 + i}"
        for pos, src in enumerate(sources):
            shift = _SHIFTS[pos]
            b.shri("r10", f"r{6 + src}", shift)
            if shift != 24:
                b.andi("r10", "r10", 0xFF)
            b.shli("r10", "r10", 2)
            b.add("r10", "r10", "r2")
            b.load("r11", "r10", 0, width=4, comment=f"td4-w{i}-b{pos}")
            b.shli("r11", "r11", shift)
            if pos == 0:
                b.mov(acc, "r11")
            else:
                b.or_(acc, acc, "r11")
        b.load("r11", "r1", 16 + 4 * i, width=4, comment=f"rk-final-{i}")
        b.xor(acc, acc, "r11")
        b.store("r3", acc, 4 * i, width=4, comment=f"out-{i}")
