"""SIMF-style flush on kernel entry (arXiv:2011.10249).

SIMF ("Speculative Interference-Free Microarchitecture Flushing" in
spirit: flush microarchitectural state on protection-domain
crossings) attacks the replay loop at its probe step instead of its
execution step: every kernel entry — page-fault handling, interrupt
delivery — flushes the core-private caches and TLBs, so whatever
residue the speculative window left is gone by the time the
attacker's handler gets to measure it.  Speculation itself is
unrestricted; MicroScope's windows still execute, but the
Prime+Probe readout that §4.2 relies on comes back empty.

The model observes the squash stage (kernel entries are exactly
the ``page-fault`` / ``interrupt:*`` squash reasons) and flushes the
whole private cache hierarchy plus, optionally, the TLBs.  Flushing
erases residue rather than restricting speculation; a side effect in
this model is that the cold restart each replay now pays also skews
the port-contention channel's timing alignment, so §4.3 degrades as
well even though contention itself is never policed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import DefenseHookConfig, MachineConfig
from repro.cpu.context import HardwareContext
from repro.cpu.rob import ROBEntry
from repro.evaluation.defenses.mechanisms import (
    DefenseMechanism,
    register_mechanism,
)

def is_kernel_entry(reason: str) -> bool:
    """True for squash reasons that transfer control to the kernel."""
    return reason == "page-fault" or reason.startswith("interrupt")


@register_mechanism("simf")
class SIMFFlushMechanism(DefenseMechanism):
    """Flush caches (and TLBs) on every kernel entry."""

    scheme = "simf"

    def __init__(self, flush_tlbs: bool = True):
        self.flush_tlbs = flush_tlbs
        self._machine = None
        self._flushes = None

    def attach(self, machine) -> None:
        super().attach(machine)
        self._machine = machine
        self._flushes = machine.metrics.counter("defense.simf.flushes")

    def on_squash(self, core, context: HardwareContext, squashed,
                  reason: str, trigger: Optional[ROBEntry]) -> None:
        """Flush on every kernel entry."""
        if not is_kernel_entry(reason):
            return
        self._machine.hierarchy.flush_all()
        if self.flush_tlbs:
            self._machine.tlbs.flush_all()
        if self._flushes is not None:
            self._flushes.inc()

    # Stateless beyond the flush counter (which travels with the
    # metrics registry), so the base capture()/restore() suffice.


def simf_machine(**params) -> MachineConfig:
    """A platform config with the SIMF flush mechanism installed."""
    return MachineConfig(defense=DefenseHookConfig(
        scheme="simf", params=dict(params)))


@dataclass
class SIMFReport:
    """The cf-cache attack's verdicts with and without the flush."""

    secret: int
    undefended_guess: Optional[int]
    defended_guess: Optional[int]
    undefended_hits: int
    defended_hits: int

    @property
    def residue_erased(self) -> bool:
        """The probe no longer resolves the secret."""
        return self.defended_guess != self.secret


def evaluate_simf(secret: int = 1, replays: int = 5) -> SIMFReport:
    """Run the §4.2.3 cache control-flow attack against the stock
    platform and the SIMF platform; report what the probe decoded."""
    from repro.core.attacks.control_flow import ControlFlowCacheAttack
    plain = ControlFlowCacheAttack(replays=replays).run(secret)
    defended = ControlFlowCacheAttack(
        replays=replays, machine=simf_machine()).run(secret)
    return SIMFReport(
        secret=secret,
        undefended_guess=plain.guessed,
        defended_guess=defended.guessed,
        undefended_hits=plain.hitsB + plain.hitsC,
        defended_hits=defended.hitsB + defended.hitsC)
