"""Oracle-off bit-identity: an idle (or unseeded) oracle is invisible.

The hub is wired into every machine permanently (a ``None``-check per
hook when no oracle is active), and an *active* oracle only reads
core state — so executions must be bit-identical across all three
modes: no activation, activation with no secrets, and no hub use at
all.  Hypothesis drives random programs through a fresh machine per
mode and compares the pickled machine capture plus the metrics dump.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.machine import Machine
from repro.isa import instructions as ins
from repro.isa.program import ProgramBuilder
from repro.oracle import TaintOracle, activate

DATA_BASE = 0x0010_0000
_DATA_REGS = [f"r{i}" for i in range(2, 10)]
_OFFSETS = [0, 8, 16, 64]


@st.composite
def _random_program(draw):
    """Init + bounded loop with branches, loads and stores — enough
    shape to exercise every oracle hook point."""
    builder = ProgramBuilder("oracle-identity")
    builder.li("r1", DATA_BASE)
    for reg in _DATA_REGS:
        builder.li(reg, draw(st.integers(0, 1 << 20)))
    builder.li("r0", draw(st.integers(min_value=1, max_value=4)))
    builder.label("loop")
    for _ in range(draw(st.integers(min_value=2, max_value=8))):
        kind = draw(st.sampled_from(
            ["alu", "mul", "div", "load", "store"]))
        rd = draw(st.sampled_from(_DATA_REGS))
        rs1 = draw(st.sampled_from(_DATA_REGS))
        rs2 = draw(st.sampled_from(_DATA_REGS))
        offset = draw(st.sampled_from(_OFFSETS))
        if kind == "alu":
            ctor = draw(st.sampled_from([ins.add, ins.sub, ins.xor]))
            builder.emit(ctor(rd, rs1, rs2))
        elif kind == "mul":
            builder.emit(ins.mul(rd, rs1, rs2))
        elif kind == "div":
            builder.emit(ins.div(rd, rs1, rs2))
        elif kind == "load":
            builder.emit(ins.load(rd, "r1", offset))
        else:
            builder.emit(ins.store("r1", rs1, offset))
    if draw(st.booleans()):
        builder.beq(draw(st.sampled_from(_DATA_REGS)),
                    draw(st.sampled_from(_DATA_REGS)), "skip")
        builder.emit(ins.store("r1", "r2", 128))
        builder.label("skip")
    builder.subi("r0", "r0", 1)
    builder.li("r13", 0)
    builder.bne("r0", "r13", "loop")
    builder.halt()
    return builder.build()


def _fingerprint(program, oracle):
    """Pickled capture + metrics of one fresh-machine run (under
    *oracle*)."""
    scope = activate(oracle) if oracle is not None else None
    if scope is not None:
        scope.__enter__()
    try:
        machine = Machine()
        machine.contexts[0].load_program(program)
        machine.run(3_000_000)
    finally:
        if scope is not None:
            scope.__exit__(None, None, None)
    assert machine.contexts[0].finished()
    return pickle.dumps(machine.capture()), machine.metrics.dump()


@given(_random_program())
@settings(max_examples=12, deadline=None)
def test_unseeded_oracle_is_bit_invisible(program):
    oracle = TaintOracle()
    baseline = _fingerprint(program, None)
    observed = _fingerprint(program, oracle)
    assert observed == baseline
    # ... and with no registered secret it never fires.
    assert oracle.summary.total == 0
