"""Cycle-level observability: metrics registry, tracing, profiling.

Three layers, each opt-in at a different granularity:

* :mod:`repro.observability.stats` — the consolidated per-subsystem
  counter groups (always on; plain attribute increments, no overhead
  over the historical ad-hoc dataclasses they replace);
* :mod:`repro.observability.registry` — the hierarchical
  :class:`MetricsRegistry` every machine carries; ``dump()`` flattens
  all counters/gauges/histograms into one JSON-ready dict;
* :mod:`repro.observability.tracer` — the ring-buffered
  :class:`EventTracer` (zero cost unless attached) with JSONL and
  Chrome ``trace_event`` exporters for Perfetto.

See ``docs/OBSERVABILITY.md`` for the naming scheme and workflows.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.observability.profiler import (
        RunProfile,
        collect_machines,
    )
    from repro.observability.registry import (
        DEFAULT_BOUNDS,
        Counter,
        Gauge,
        Histogram,
        MetricsRegistry,
        merge_dumps,
    )
    from repro.observability.stats import (
        CacheStats,
        ContextStats,
        HierarchyStats,
        KernelStats,
        MicroScopeStats,
        PortStats,
        PredictorStats,
        PWCStats,
        StatGroup,
        TLBStats,
        WalkerStats,
    )
    from repro.observability.tracer import (
        HARNESS_TID,
        KERNEL_TID,
        MICROSCOPE_TID,
        EventTracer,
        TraceEvent,
        render_pipeline,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.observability.profiler": ("RunProfile", "collect_machines"),
    "repro.observability.registry": (
        "DEFAULT_BOUNDS", "Counter", "Gauge", "Histogram", "MetricsRegistry",
        "merge_dumps"),
    "repro.observability.stats": (
        "CacheStats", "ContextStats", "HierarchyStats", "KernelStats",
        "MicroScopeStats", "PortStats", "PredictorStats", "PWCStats",
        "StatGroup", "TLBStats", "WalkerStats"),
    "repro.observability.tracer": (
        "HARNESS_TID", "KERNEL_TID", "MICROSCOPE_TID", "EventTracer",
        "TraceEvent", "render_pipeline"),
})

__all__ = [
    "RunProfile",
    "collect_machines",
    "DEFAULT_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_dumps",
    "StatGroup",
    "ContextStats",
    "CacheStats",
    "HierarchyStats",
    "TLBStats",
    "PWCStats",
    "WalkerStats",
    "PortStats",
    "PredictorStats",
    "KernelStats",
    "MicroScopeStats",
    "EventTracer",
    "TraceEvent",
    "render_pipeline",
    "HARNESS_TID",
    "KERNEL_TID",
    "MICROSCOPE_TID",
]
