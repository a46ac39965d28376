"""Regression tests for the stats consolidation shim.

The per-subsystem ``*Stats`` dataclasses moved into
``repro.observability.stats`` as :class:`StatGroup` subclasses.  Code
written against the old surface — importing the classes from their
historical homes, reading/incrementing plain attributes, constructing
with keyword arguments — must keep working unchanged."""

import pytest

from repro.observability.stats import StatGroup


# --- legacy import paths ---------------------------------------------------

def test_stats_classes_still_importable_from_historical_homes():
    from repro.cpu.branch import PredictorStats       # noqa: F401
    from repro.cpu.context import ContextStats
    from repro.cpu.ports import PortStats             # noqa: F401
    from repro.kernel.kernel import KernelStats       # noqa: F401
    from repro.mem.cache import CacheStats
    from repro.vm.pwc import PWCStats                 # noqa: F401
    from repro.vm.tlb import TLBStats                 # noqa: F401
    from repro.vm.walker import WalkerStats           # noqa: F401
    from repro.observability import stats as canonical
    assert ContextStats is canonical.ContextStats
    assert CacheStats is canonical.CacheStats


# --- legacy attribute access ----------------------------------------------

def test_context_stats_legacy_attribute_access():
    """The exact access pattern scattered through the simulator and
    the analysis scripts: bare attribute reads and ``+=``."""
    from repro.cpu.context import ContextStats
    stats = ContextStats()
    assert stats.fetched == 0
    assert stats.retired == 0
    assert stats.squashed == 0
    assert stats.replays == 0
    stats.fetched += 3
    stats.retired += 2
    stats.replays += 1
    assert (stats.fetched, stats.retired, stats.replays) == (3, 2, 1)


def test_keyword_construction_preserved():
    from repro.mem.cache import CacheStats
    stats = CacheStats(hits=5, misses=2)
    assert stats.hits == 5
    assert stats.misses == 2
    assert stats.evictions == 0


def test_unknown_keyword_rejected():
    from repro.mem.cache import CacheStats
    with pytest.raises(TypeError):
        CacheStats(hit=1)       # typo'd field must not pass silently


def test_stat_groups_are_slotted():
    from repro.cpu.context import ContextStats
    stats = ContextStats()
    with pytest.raises(AttributeError):
        stats.retierd = 1       # typo'd write must not pass silently


def test_equality_and_repr():
    from repro.vm.pwc import PWCStats
    a, b = PWCStats(hits=1), PWCStats(hits=1)
    assert a == b
    b.misses += 1
    assert a != b
    assert "hits=1" in repr(a)


def test_capture_restore_reset_lifecycle():
    from repro.vm.walker import WalkerStats
    stats = WalkerStats(walks=4, faults=1, total_latency=900)
    state = stats.capture()
    stats.reset()
    assert stats.as_dict() == {"walks": 0, "faults": 0,
                               "total_latency": 0}
    stats.restore(state)
    assert stats.walks == 4 and stats.total_latency == 900
    with pytest.raises(ValueError):
        stats.restore((1, 2))   # wrong arity = incompatible snapshot


def test_all_groups_declare_slots_matching_fields():
    """Every concrete group keeps __slots__ == FIELDS, so instances
    stay dict-free (the consolidation must not regress footprint)."""
    from repro.observability import stats as mod
    groups = [cls for cls in vars(mod).values()
              if isinstance(cls, type) and issubclass(cls, StatGroup)
              and cls is not StatGroup]
    assert len(groups) >= 10
    for cls in groups:
        assert tuple(cls.__slots__) == cls.FIELDS
        assert not hasattr(cls(), "__dict__")


# --- live wiring ----------------------------------------------------------

def test_context_stats_feed_machine_metrics_dump():
    """Attributes mutated by the pipeline are the same objects the
    registry reads: a short run shows up both ways."""
    from repro.cpu.machine import Machine
    from repro.isa.program import ProgramBuilder
    machine = Machine()
    program = (ProgramBuilder("t")
               .li("r1", 0).li("r2", 10)
               .label("loop").addi("r1", "r1", 1)
               .bne("r1", "r2", "loop").halt().build())
    machine.contexts[0].load_program(program)
    machine.run(10_000)
    ctx = machine.contexts[0]
    assert ctx.stats.retired > 0
    assert ctx.stats.issued >= ctx.stats.retired
    dump = machine.metrics.dump()
    assert dump["cpu.ctx0.retired"] == ctx.stats.retired
    assert dump["cpu.ctx0.issued"] == ctx.stats.issued
    l1 = machine.hierarchy.levels[0]
    assert dump[f"mem.{l1.name.lower()}.hits"] == l1.stats.hits
