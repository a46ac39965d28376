"""Machine-wide counter reporting.

One source: the machine's metrics registry.  :func:`metrics_payload`
is the cycle count plus ``machine.metrics.dump()`` — per-context
fetch/retire/squash/replay counts, cache and TLB hits, page-walk and
PWC statistics, execution-port usage, branch prediction and, when a
kernel or MicroScope module is wired in, their fault accounting.
:func:`export_metrics_json` writes it to disk and
:func:`render_metrics` prints it as a short text report — a quick way
to *see* an attack: replays show up as squash storms with near-zero
IPC on the victim context while the monitor hums along.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List


def metrics_payload(env_or_machine) -> Dict[str, Any]:
    """Flatten the machine's metrics registry into a JSON-ready dict.

    Accepts a bare :class:`Machine` or anything with a ``machine``
    attribute (e.g. an ``AttackEnvironment``).  The payload carries the
    cycle count alongside the registry dump so offline tooling can
    compute rates.
    """
    machine = getattr(env_or_machine, "machine", env_or_machine)
    return {"cycle": machine.cycle, "metrics": machine.metrics.dump()}


def export_metrics_json(env_or_machine, path) -> Dict[str, Any]:
    """Write :func:`metrics_payload` to *path*; returns the payload."""
    payload = metrics_payload(env_or_machine)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload


def _rate(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def render_metrics(payload: Dict[str, Any]) -> str:
    """A :func:`metrics_payload` as a human-readable text report."""
    cycles = payload["cycle"]
    metrics = payload["metrics"]

    def group(prefix: str) -> List[str]:
        """Unit names under *prefix*, in dump order."""
        return list(dict.fromkeys(key[len(prefix):].split(".")[0]
                                  for key in metrics
                                  if key.startswith(prefix)))

    lines = [f"machine report @ cycle {cycles}", "=" * 40]
    for ctx in group("cpu.ctx"):
        fetched, retired, squashed, replays, faults, aborts = (
            metrics[f"cpu.ctx{ctx}.{name}"] for name in (
                "fetched", "retired", "squashed", "replays", "faults",
                "txn_aborts"))
        squash_rate = squashed / fetched if fetched else 0.0
        lines.append(
            f"ctx{ctx}: IPC {retired / max(cycles, 1):.2f}  retired "
            f"{retired}  fetched {fetched}  squashed {squashed} "
            f"({squash_rate:.0%})  replays {replays}  faults {faults}  "
            f"aborts {aborts}")
    for level in group("mem."):
        if level == "hierarchy":
            continue
        hits = metrics[f"mem.{level}.hits"]
        misses = metrics[f"mem.{level}.misses"]
        lines.append(
            f"{level.upper()}: hit rate {_rate(hits, misses):.1%} "
            f"({hits}/{hits + misses}), "
            f"{metrics[f'mem.{level}.evictions']} evictions")
    tlb = _rate(metrics["vm.tlb.l1d.hits"], metrics["vm.tlb.l1d.misses"])
    pwc = _rate(metrics["vm.pwc.hits"], metrics["vm.pwc.misses"])
    lines.append(f"TLB hit rate: {tlb:.1%}   PWC hit rate: {pwc:.1%}")
    walks = metrics["vm.walker.walks"]
    mean_walk = metrics["vm.walker.total_latency"] / walks if walks else 0.0
    lines.append(f"page walks: {walks} ({metrics['vm.walker.faults']} "
                 f"faulted, mean {mean_walk:.0f} cycles)   DRAM "
                 f"accesses: {metrics['mem.hierarchy.dram_accesses']}")
    predictions = metrics["cpu.predictor.predictions"]
    accuracy = (1.0 - metrics["cpu.predictor.mispredictions"] / predictions
                if predictions else 1.0)
    lines.append(f"branch predictor accuracy: {accuracy:.1%}")
    issued = sorted(((port, metrics[f"cpu.port.{port}.issued"])
                     for port in group("cpu.port.")),
                    key=lambda kv: -kv[1])
    lines.append("port issues: " + "  ".join(
        f"{port}={count}" for port, count in issued))
    if "kernel.page_faults" in metrics:
        lines.append(f"kernel page faults: {metrics['kernel.page_faults']}")
    if "microscope.handle_faults" in metrics:
        lines.append(f"microscope handle faults: "
                     f"{metrics['microscope.handle_faults']}")
    return "\n".join(lines)
