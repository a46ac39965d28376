"""Per-cycle code, and the memory path every replay window runs, reads
no Enum member through its class and imports nothing.

Before Python 3.12 ``EnumType`` defines ``__getattr__``, so a read such
as ``EntryState.READY`` takes the slow attribute hook: about 150 ns on
3.11, where a module global costs 9 ns.  The functions below run every
cycle (or once per ROB entry per cycle), so they compare against the
module constants (``repro.cpu.rob.READY``, ``repro.cpu.context.RUNNING``,
``repro.cpu.core.HALT``, ...) instead.  This test walks their bytecode,
nested code objects included, and fails on any global that resolves
to an Enum class.

The same functions import nothing: even a cached ``import`` statement
is a ``sys.modules`` lookup and a name bind per call.  A deferred
import belongs at per-trial granularity or coarser (``docs/
ARCHITECTURE.md``, "Import layering").
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
from repro.core.module import MicroScopeModule
from repro.evaluation.defenses.mechanisms import nonspeculative
from repro.kernel.process import Process
from repro.mem.cache import Cache
from repro.mem.hierarchy import MemoryHierarchy
from repro.vm.tlb import TLB
from repro.vm.walker import PageWalker

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
    # The memory path: demand accesses, page walks, and the module's
    # Prime, Probe and walk tuning in every replay window.
    Cache.lookup,
    Cache.insert,
    Cache.invalidate,
    MemoryHierarchy.access,
    MemoryHierarchy.flush_line,
    MemoryHierarchy.flush_lines,
    PageWalker.walk,
    TLB.lookup,
    Process.translate_any,
    MicroScopeModule.prime_lines,
    MicroScopeModule.probe_lines,
    MicroScopeModule.apply_walk_tuning,
    MicroScopeModule._place_line,
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


def imports(function):
    """The modules *function* imports, in its nested code too."""
    return {instruction.argval
            for code in _code_objects(function.__code__)
            for instruction in dis.get_instructions(code)
            if instruction.opname == "IMPORT_NAME"}


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


def test_the_walk_finds_imports_in_nested_code():
    def nested():
        def inner():
            from repro.cpu import rob
            return rob
        return inner

    assert imports(nested) == {"repro.cpu"}
    assert imports(enum_globals) == set()


@pytest.mark.parametrize("function", HOT_PATH,
                         ids=lambda function: function.__qualname__)
def test_hot_path_imports_nothing(function):
    found = imports(function)
    assert not found, (
        f"{function.__module__}.{function.__qualname__} imports "
        f"{', '.join(sorted(found))} per call: import at module level "
        f"or once per trial")
