"""Core configuration: widths, latencies and execution-port layout.

Defaults are loosely modelled on the paper's Intel Xeon E5-1630 v3
(Haswell): a 4-wide front end, a ~100-entry reorder buffer per SMT
context, one non-pipelined divider on port 0, and multipliers on
port 1.  The exact numbers matter less than the structural facts the
attack relies on: in-order retirement, speculative execution during
page walks, and a divider that is a shared, serially-occupied resource.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Tuple

from repro.isa.instructions import Instruction, Opcode

#: Operation classes used for port binding and latency lookup.
OP_CLASSES = ("alu", "mul", "div", "fpalu", "load", "store", "branch")


def op_class(instr: Instruction) -> str:
    """Map an instruction to its execution-port class."""
    op = instr.op
    if op in (Opcode.LOAD, Opcode.FLOAD):
        return "load"
    if op in (Opcode.STORE, Opcode.FSTORE):
        return "store"
    if op in (Opcode.MUL, Opcode.FMUL):
        return "mul"
    if op in (Opcode.DIV, Opcode.FDIV):
        return "div"
    if op in (Opcode.FADD, Opcode.FSUB):
        return "fpalu"
    if instr.is_branch:
        return "branch"
    return "alu"


@dataclass(frozen=True)
class PortConfig:
    """One execution port and the operation classes it accepts."""

    name: str
    classes: FrozenSet[str]


def default_ports() -> Tuple[PortConfig, ...]:
    """Skylake/Haswell-flavoured port layout.

    The single divider lives on port 0 and is non-pipelined; integer
    and FP multiplies go to port 1.  This is the structural hazard the
    PortSmash-style attack of Section 4.3 observes.
    """
    return (
        PortConfig("p0", frozenset({"alu", "div"})),
        PortConfig("p1", frozenset({"alu", "mul", "fpalu"})),
        PortConfig("p5", frozenset({"alu", "fpalu"})),
        PortConfig("p6", frozenset({"alu", "branch"})),
        PortConfig("p2", frozenset({"load"})),
        PortConfig("p3", frozenset({"load"})),
        PortConfig("p4", frozenset({"store"})),
    )


def default_latencies() -> Dict[str, int]:
    """Execution latencies (cycles) keyed by opcode class or special
    opcode name."""
    return {
        "alu": 1,
        "mul": 3,
        "fmul": 4,
        "div": 18,
        "fdiv": 24,
        # Latency of an FP divide with a subnormal operand or result —
        # the timing difference of Andrysco et al. that §4.2.1 detects.
        "fdiv_subnormal": 140,
        "fpalu": 3,
        "branch": 1,
        "store": 1,
        "rdtsc": 12,
        "rdrand": 150,
        "fence": 1,
        "tsx": 2,
        "nop": 1,
        # Store-to-load forwarding latency.
        "forward": 5,
    }


@dataclass(frozen=True)
class DefenseHookConfig:
    """A hardware defense mechanism, attached to the machine as an
    observer (:mod:`repro.cpu.observer`).

    ``scheme`` names a mechanism listed in
    :data:`repro.evaluation.defenses.mechanisms.MECHANISM_MODULES`
    (``"fences"``, ``"jamais-vu"``, ``"delay-on-squash"``, ``"simf"``,
    ``"leash"``);
    ``params`` carries its knobs verbatim to the mechanism factory.
    The config lives here (not in the evaluation package) because it
    is part of :class:`~repro.config.MachineConfig` — the machine
    resolves and installs the mechanism at construction time.
    """

    scheme: str = ""
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass
class CoreConfig:
    """All tunables of one physical core."""

    fetch_width: int = 4
    issue_width: int = 6
    retire_width: int = 4
    #: ROB entries available to each SMT context.
    rob_size: int = 96
    num_contexts: int = 2
    ports: Tuple[PortConfig, ...] = field(default_factory=default_ports)
    latencies: Dict[str, int] = field(default_factory=default_latencies)
    #: Which op classes occupy their port for the full latency.
    non_pipelined: FrozenSet[str] = frozenset({"div"})
    mispredict_penalty: int = 12
    #: Front-end refill penalty after a squash caused by a fault/abort.
    squash_penalty: int = 16
    #: Model Intel's RDRAND serialisation (§7.2): when True, RDRAND
    #: blocks younger instructions until it retires, defeating the
    #: integrity attack.
    rdrand_fenced: bool = True
    #: Deterministic seed for the RDRAND value stream.
    rdrand_seed: int = 0xC0FFEE
    #: Optional uniform jitter (+/- cycles) added to RDTSC readings,
    #: modelling measurement noise.  0 disables it.
    rdtsc_jitter: int = 0
    rdtsc_jitter_seed: int = 7
    #: Branch predictor table size (entries of 2-bit counters).
    predictor_entries: int = 512

    def latency_of(self, key: str) -> int:
        try:
            return self.latencies[key]
        except KeyError:
            raise KeyError(f"no latency configured for {key!r}") from None
