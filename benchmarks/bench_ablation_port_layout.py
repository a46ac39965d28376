"""Ablation (microarchitectural): why the divider channel works.

The §4.3 signal exists because the divider is a *single, non-pipelined,
SMT-shared* unit.  This bench re-runs the Fig. 10 experiment on
hypothetical cores to isolate each property:

* default core — one non-pipelined divider on port 0;
* dual-divider core — a second divider on port 5 halves the structural
  hazard;
* pipelined-divider core — a divider that accepts one op per cycle
  removes occupancy altogether.

The above-threshold evidence should collapse accordingly — a defense
hint the paper's §8 does not pursue (hardware cost), quantified here.
"""

from repro.core.attacks.port_contention import PortContentionAttack
from repro.cpu.config import CoreConfig, PortConfig
from repro.config import MachineConfig

from conftest import emit, render_table


def _ports_with_second_divider():
    return (
        PortConfig("p0", frozenset({"alu", "div"})),
        PortConfig("p1", frozenset({"alu", "mul", "fpalu"})),
        PortConfig("p5", frozenset({"alu", "fpalu", "div"})),
        PortConfig("p6", frozenset({"alu", "branch"})),
        PortConfig("p2", frozenset({"load"})),
        PortConfig("p3", frozenset({"load"})),
        PortConfig("p4", frozenset({"store"})),
    )


def test_port_layout_sweep(once):
    measurements = 1500

    def experiment():
        rows = []
        variants = [
            ("single non-pipelined divider (real)", CoreConfig()),
            ("two non-pipelined dividers",
             CoreConfig(ports=_ports_with_second_divider())),
            ("pipelined divider",
             CoreConfig(non_pipelined=frozenset())),
        ]
        for label, core_config in variants:
            attack = PortContentionAttack(
                measurements=measurements,
                machine=MachineConfig(core=core_config))
            threshold = attack.calibrate(samples=600)
            div = attack.run(secret=1, threshold=threshold)
            mul = attack.run(secret=0, threshold=threshold)
            rows.append([label, f"{threshold:.0f}",
                         div.above_threshold, mul.above_threshold,
                         "yes" if div.correct and mul.correct
                         else "NO"])
        return rows

    rows = once(experiment)
    table = render_table(
        f"Port-layout ablation ({measurements} monitor samples): the "
        f"attack needs the divider to be scarce and occupying",
        ["core variant", "threshold", "above-threshold (div victim)",
         "above-threshold (mul victim)", "secret recovered"],
        rows)
    emit("ablation_port_layout", table)
    single, dual, pipelined = (row[2] for row in rows)
    assert single >= dual >= 0
    assert single > pipelined
