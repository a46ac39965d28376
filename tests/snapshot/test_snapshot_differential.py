"""Differential testing of machine snapshot/restore.

Hypothesis generates random terminating programs and random checkpoint
points; a machine that is snapshotted mid-run, disturbed, and restored
must finish with a :func:`repro.reporting.metrics_payload` (and final
architectural state) byte-identical to an uninterrupted run.  This is
the correctness contract the warm-start experiment drivers rely on:
a restore is indistinguishable from never having deviated.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.machine import Machine
from repro.isa import instructions as ins
from repro.isa.program import ProgramBuilder
from repro.reporting import metrics_payload
from repro.snapshot import MachineSnapshot

#: Bare-metal runs identity-map VAs, so data lives in low DRAM.
DATA_BASE = 0x0010_0000
_DATA_REGS = [f"r{i}" for i in range(2, 10)]
_OFFSETS = [0, 8, 16, 24, 64, 128]


@st.composite
def _random_program(draw):
    """Init + bounded loop + halt, rich in loads/stores/branches so a
    mid-run snapshot lands in interesting pipeline states."""
    builder = ProgramBuilder("snapshot-differential")
    builder.li("r1", DATA_BASE)
    for reg in _DATA_REGS:
        builder.li(reg, draw(st.integers(0, 1 << 20)))
    iterations = draw(st.integers(min_value=1, max_value=5))
    builder.li("r0", iterations)
    builder.label("loop")
    for _ in range(draw(st.integers(min_value=2, max_value=10))):
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
        r_a = draw(st.sampled_from(_DATA_REGS))
        r_b = draw(st.sampled_from(_DATA_REGS))
        builder.beq(r_a, r_b, "skip")
        builder.emit(ins.store("r1", r_a, 192))
        builder.label("skip")
    builder.subi("r0", "r0", 1)
    builder.li("r13", 0)
    builder.bne("r0", "r13", "loop")
    builder.halt()
    return builder.build()


def _finish(machine: Machine):
    machine.run(3_000_000)
    assert machine.contexts[0].finished(), "program did not finish"


def _state_of(machine: Machine):
    context = machine.contexts[0]
    memory = [machine.phys.read(addr)
              for addr in range(DATA_BASE, DATA_BASE + 256, 8)]
    return (machine.cycle,
            dict(context.int_regs),
            dict(context.fp_regs),
            memory,
            metrics_payload(machine))


@given(_random_program(), st.integers(min_value=0, max_value=400))
@settings(max_examples=40, deadline=None)
def test_restore_matches_uninterrupted_run(program, checkpoint_cycles):
    """take() mid-run must not perturb, and restore + re-run must be
    bit-identical to the uninterrupted execution."""
    baseline = Machine()
    baseline.contexts[0].load_program(program)
    _finish(baseline)
    expected = _state_of(baseline)

    machine = Machine()
    machine.contexts[0].load_program(program)
    machine.run(checkpoint_cycles)
    snapshot = MachineSnapshot.take(machine)
    _finish(machine)
    # The snapshot was a pure observation: the split run still matches.
    assert _state_of(machine) == expected
    # The finished machine is maximally disturbed relative to the
    # checkpoint; restoring must rewind every subsystem.
    snapshot.restore(machine)
    _finish(machine)
    assert _state_of(machine) == expected


@given(_random_program(), st.integers(min_value=0, max_value=300))
@settings(max_examples=15, deadline=None)
def test_snapshot_survives_repeated_restores(program, checkpoint_cycles):
    """One snapshot, many rewinds: every replay from it is identical,
    including after the restored machine ran and dirtied COW frames."""
    machine = Machine()
    machine.contexts[0].load_program(program)
    machine.run(checkpoint_cycles)
    snapshot = MachineSnapshot.take(machine)
    outcomes = []
    for _ in range(3):
        snapshot.restore(machine)
        _finish(machine)
        outcomes.append(_state_of(machine))
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_restore_rewinds_physical_memory_writes():
    """Debug writes after take() must vanish on restore (COW frames)."""
    machine = Machine()
    snapshot = MachineSnapshot.take(machine)
    machine.phys.write(DATA_BASE, 0xDEAD)
    assert machine.phys.read(DATA_BASE) == 0xDEAD
    snapshot.restore(machine)
    assert machine.phys.read(DATA_BASE) == 0
