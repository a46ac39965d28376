"""Summary statistics, the ledger file format and the compare verdicts.

Nothing here imports ``repro``: the helpers are shared by the
orchestrator (``run.py``), its self-tests and ``run.py compare``.

Names, units, directions and regression bounds of every metric live in
the repository's ``BENCHMARK.json``; :func:`load_benchmark` reads it so
the orchestrator, the compare verdicts and the lint test all use one
definition.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

#: Bumped when the ledger JSON layout changes.
LEDGER_SCHEMA = 1

#: Recorded next to the end-to-end metrics of ``BENCHMARK.json`` but not
#: listed there.  ``failed_frac`` gates with an absolute bound of zero
#: (``BENCHMARK.json`` metrics must never read 0).  The rest are
#: reported, not gated (``bound`` ``None``): a run's total wall time
#: and the middle and tail of its operations track the host's stretches
#: of contention more than the program, and ``reference_us`` measures
#: the host, not the program.
LEDGER_ONLY = (
    {"name": "failed_frac", "unit": "ratio", "better": "lower",
     "bound": 0.0},
    {"name": "run_s", "unit": "s", "better": "lower", "bound": None},
    {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": None},
    {"name": "op_ms_p90", "unit": "ms", "better": "lower", "bound": None},
    {"name": "reference_us", "unit": "us", "better": "lower",
     "bound": None},
)

#: Run by a ledger next to the workloads of ``BENCHMARK.json`` but not
#: listed there: the full grid into an empty store is a mix of very
#: different cells, so no statistic of one run of it stays within a
#: bound on a shared host (see README.md).
LEDGER_ONLY_WORKLOADS = ("matrix-cold",)


def load_benchmark(root: Path) -> Dict[str, Any]:
    """Parse ``BENCHMARK.json`` at the repository root *root*."""
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def end_to_end(benchmark: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Every end-to-end metric a ledger records, by name."""
    metrics = list(benchmark["end_to_end"]) + list(LEDGER_ONLY)
    return {m["name"]: m for m in metrics}


def workloads(benchmark: Dict[str, Any]) -> List[str]:
    """Every workload a ledger runs, in order."""
    return ([w["name"] for w in benchmark["workloads"]]
            + list(LEDGER_ONLY_WORKLOADS))


# --- summary statistics -----------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0..100) by linear interpolation between
    closest ranks, as ``numpy.percentile`` computes it by default."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside 0..100")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    """The 50th percentile."""
    return percentile(values, 50.0)


def summarize(values: Sequence[float]) -> Dict[str, Any]:
    """Median, first and third quartile, count and the raw samples."""
    return {"median": median(values), "q1": percentile(values, 25.0),
            "q3": percentile(values, 75.0), "n": len(values),
            "samples": list(values)}


def spread(summary: Dict[str, Any]) -> float:
    """Interquartile distance as a share of the median (0 for a
    zero median, where a share is undefined)."""
    if not summary["median"]:
        return 0.0
    return abs(summary["q3"] - summary["q1"]) / abs(summary["median"])


# --- compare ----------------------------------------------------------------


def verdict(base: Dict[str, Any], new: Dict[str, Any], *, better: str,
            bound: float) -> str:
    """Judge one end-to-end metric of one workload, *new* against *base*
    (both :func:`summarize` outputs).

    ``regression``: the median worsened by more than the bound, a share
    of the base median.  ``unresolved``: either side's run-to-run
    spread is wider than the bound, so the medians cannot tell, unless
    every new run beats every base run.  ``ok`` otherwise.  A zero
    bound is absolute and judges the worst run of each side, so a
    single failed run is a regression.
    """
    sign = 1.0 if better == "lower" else -1.0
    if not bound:
        pick = max if better == "lower" else min
        worse_by = sign * (pick(new["samples"]) - pick(base["samples"]))
        return "regression" if worse_by > 0 else "ok"
    worse_by = sign * (new["median"] - base["median"])
    if max(spread(base), spread(new)) > bound:
        if base["samples"] and new["samples"] and all(
                sign * (n - b) < 0 for n in new["samples"]
                for b in base["samples"]):
            return "ok"
        return "unresolved"
    if worse_by > bound * abs(base["median"]):
        return "regression"
    return "ok"


def compare(base: Dict[str, Any], new: Dict[str, Any],
            benchmark: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per (workload, metric) present in both ledgers: the
    end-to-end metrics with a verdict, then the per-layer metrics as
    deltas only (they are diagnostic, never gating)."""
    e2e = end_to_end(benchmark)
    rows: List[Dict[str, Any]] = []
    for workload in sorted(set(base["workloads"]) & set(new["workloads"])):
        old_w, new_w = base["workloads"][workload], new["workloads"][workload]
        for name, spec in e2e.items():
            if name not in old_w["end_to_end"] \
                    or name not in new_w["end_to_end"]:
                continue
            a, b = old_w["end_to_end"][name], new_w["end_to_end"][name]
            rows.append({
                "workload": workload, "metric": name,
                "unit": spec["unit"], "base": a, "new": b,
                "delta": _relative(a["median"], b["median"]),
                "bound": spec["bound"],
                "verdict": "reported" if spec["bound"] is None
                else verdict(a, b, better=spec["better"],
                             bound=spec["bound"]),
            })
        for name in sorted(set(old_w["per_layer"]) & set(new_w["per_layer"])):
            a, b = old_w["per_layer"][name], new_w["per_layer"][name]
            rows.append({
                "workload": workload, "metric": name, "unit": b["unit"],
                "base": a, "new": b,
                "delta": _relative(a["value"], b["value"]),
                "bound": None,
                "verdict": "absent" if a.get("absent") or b.get("absent")
                else "diagnostic",
            })
    return rows


def _relative(base: Optional[float], new: Optional[float]
              ) -> Optional[float]:
    if base is None or new is None or not base:
        return None
    return (new - base) / abs(base)


def format_compare(rows: Sequence[Dict[str, Any]]) -> List[str]:
    """Render :func:`compare` rows as aligned text lines."""
    lines = []
    for row in rows:
        a, b = row["base"], row["new"]
        delta = "n/a" if row["delta"] is None else f"{row['delta']:+.1%}"
        if "median" not in a:
            lines.append(
                f"{row['workload']} {row['metric']} {fmt(a['value'])}"
                f" -> {fmt(b['value'])} {row['unit']} ({delta}) "
                f"{row['verdict']}")
            continue
        bound = ("not gated" if row["bound"] is None
                 else f"bound {row['bound']:.0%}")
        lines.append(
            f"{row['workload']} {row['metric']} "
            f"{fmt(a['median'])} [{fmt(a['q1'])}, {fmt(a['q3'])}] -> "
            f"{fmt(b['median'])} [{fmt(b['q1'])}, {fmt(b['q3'])}] "
            f"{row['unit']} ({delta}, {bound}) {row['verdict'].upper()}")
    return lines


def fmt(value: Any) -> str:
    if value is None:
        return "absent"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)
