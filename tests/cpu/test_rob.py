import pytest

from repro.cpu.config import op_class
from repro.cpu.rob import EntryState, ReorderBuffer, ROBEntry
from repro.isa import instructions as ins


def entry(seq, index=0, instr=None):
    instr = instr or ins.nop()
    return ROBEntry(seq, 0, index, instr, op_class(instr))


def test_capacity():
    rob = ReorderBuffer(2)
    rob.push(entry(0))
    rob.push(entry(1))
    assert rob.full
    with pytest.raises(OverflowError):
        rob.push(entry(2))


def test_invalid_capacity():
    with pytest.raises(ValueError):
        ReorderBuffer(0)


def test_fifo_order():
    rob = ReorderBuffer(4)
    for i in range(3):
        rob.push(entry(i))
    assert rob.head.seq == 0
    assert rob.pop_head().seq == 0
    assert rob.head.seq == 1


def test_empty_head():
    rob = ReorderBuffer(4)
    assert rob.head is None
    assert rob.empty


def test_squash_younger_than():
    rob = ReorderBuffer(8)
    entries = [entry(i) for i in range(5)]
    for e in entries:
        rob.push(e)
    squashed = rob.squash_younger_than(2)
    assert [e.seq for e in squashed] == [3, 4]
    assert all(e.squashed for e in squashed)
    assert len(rob) == 3
    assert not entries[0].squashed


def test_squash_everything():
    rob = ReorderBuffer(8)
    for i in range(3):
        rob.push(entry(i))
    squashed = rob.squash_younger_than(-1)
    assert len(squashed) == 3
    assert rob.empty


def test_stores_older_than():
    rob = ReorderBuffer(8)
    rob.push(entry(0, instr=ins.store("r1", "r2")))
    rob.push(entry(1, instr=ins.load("r1", "r2")))
    rob.push(entry(2, instr=ins.fstore("r1", "f2")))
    rob.push(entry(3, instr=ins.store("r1", "r2")))
    stores = rob.stores_older_than(3)
    assert [e.seq for e in stores] == [0, 2]


def test_entry_initial_state():
    e = entry(0)
    assert e.state is EntryState.DISPATCHED
    assert not e.completed
    assert not e.faulted
    assert e.pending == 0


def test_entry_repr_mentions_opcode():
    e = entry(0, instr=ins.mul("r1", "r2", "r3"))
    assert "mul" in repr(e)
