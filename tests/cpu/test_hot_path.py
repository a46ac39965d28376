"""Per-cycle code reads no Enum member through its class.

Before Python 3.12 ``EnumType`` defines ``__getattr__``, so a read such
as ``EntryState.READY`` takes the slow attribute hook: about 150 ns on
3.11, where a module global costs 9 ns.  The functions below run every
cycle (or once per ROB entry per cycle), so they compare against the
module constants (``repro.cpu.rob.READY``, ``repro.cpu.context.RUNNING``,
``repro.cpu.core.HALT``, ...) instead.  This test walks their bytecode,
nested code objects included, and fails on any global that resolves
to an Enum class.
"""

import builtins
import dis
import enum
import types

import pytest

from repro.cpu.context import HardwareContext
from repro.cpu.core import Core, _can_fetch
from repro.cpu.machine import Machine
from repro.cpu.observer import UnitIssueCounter
from repro.cpu.rob import EntryState, ReorderBuffer, ROBEntry
from repro.evaluation.defenses.mechanisms import nonspeculative

HOT_PATH = [
    *(getattr(Core, name) for name in (
        "step", "next_work", "front_end_cycle", "fast_forward",
        "_held_until", "_hold", "_complete", "_retire", "_apply_retire",
        "_dispatch", "_try_execute", "_execute_alu", "_execute_branch",
        "_schedule", "_fetch", "_decode_group", "busy")),
    _can_fetch,
    HardwareContext.finished,
    HardwareContext.wake,
    HardwareContext.note_squashed,
    ROBEntry.__init__,
    ReorderBuffer.squash_younger_than,
    ReorderBuffer.all_older_completed,
    Machine.run,
    nonspeculative,
    UnitIssueCounter.on_issue,
]


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def enum_globals(function):
    """The ``(name, class)`` pairs of every global *function* loads,
    in its nested code too, that resolves to an Enum class."""
    namespace = function.__globals__
    found = set()
    for code in _code_objects(function.__code__):
        for instruction in dis.get_instructions(code):
            if instruction.opname != "LOAD_GLOBAL":
                continue
            name = instruction.argval
            value = namespace.get(name, getattr(builtins, name, None))
            if isinstance(value, type) and issubclass(value, enum.Enum):
                found.add((name, value))
    return found


def test_the_walk_finds_enum_reads_in_nested_code():
    def direct(entry):
        return entry.state is EntryState.READY

    def nested(entries):
        return [e for e in entries if e.state is EntryState.COMPLETED]

    def clean(entry):
        return entry.seq

    assert enum_globals(direct) == {("EntryState", EntryState)}
    assert enum_globals(nested) == {("EntryState", EntryState)}
    assert enum_globals(clean) == set()


@pytest.mark.parametrize("function", HOT_PATH,
                         ids=lambda function: function.__qualname__)
def test_hot_path_reads_no_enum_member_through_its_class(function):
    found = enum_globals(function)
    assert not found, (
        f"{function.__module__}.{function.__qualname__} reads "
        + ", ".join(f"{cls.__module__}.{cls.__qualname__} (as {name!r})"
                    for name, cls in sorted(found, key=lambda f: f[0]))
        + " per call: read the member from a module constant instead")
