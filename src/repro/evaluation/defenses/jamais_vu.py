"""Jamais Vu squash-tracking (Skarlatos et al., ASPLOS'21).

The MicroScope authors' follow-on defense: remember which (dynamic)
instructions were squashed and refuse to *re-execute* them
speculatively — a replayed instruction only runs again once it is the
oldest instruction still making progress, so re-execution leaves no
microarchitectural residue.  The first execution of any instruction
is unrestricted (nothing has been squashed yet), which is the
defense's documented leak: the attacker keeps one window, exactly
like the fence-on-flush corner case.

The paper's three variants differ in how tracking state decays:

``counter``
    a per-instruction saturating counter, incremented on squash and
    decremented on (architectural) retire — replay pressure keeps the
    instruction flagged, normal progress releases it;
``epoch``
    flags are cleared in bulk every ``epoch_retires`` retirements
    (cheap hardware, coarse forgiveness);
``clear-on-retire``
    a flag is dropped the moment its instruction retires (precise,
    per-entry clearing).

Every variant is the same core observer: ``on_squash`` sets flags,
``on_retire`` decays them, and the ``gate`` holds flagged entries in
the ready queue until
:func:`~repro.evaluation.defenses.mechanisms.nonspeculative` admits
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.config import DefenseHookConfig, MachineConfig
from repro.cpu.context import HardwareContext
from repro.cpu.rob import ROBEntry
from repro.evaluation.defenses.mechanisms import (
    DefenseMechanism,
    nonspeculative,
    register_mechanism,
)

#: The three tracking-decay strategies of the paper.
JAMAIS_VU_VARIANTS: Tuple[str, ...] = ("counter", "epoch",
                                       "clear-on-retire")


@register_mechanism("jamais-vu")
class JamaisVuMechanism(DefenseMechanism):
    """Per-instruction squash tracking with a replay-issue gate."""

    scheme = "jamais-vu"

    def __init__(self, variant: str = "counter", saturate: int = 3,
                 epoch_retires: int = 64):
        if variant not in JAMAIS_VU_VARIANTS:
            raise ValueError(
                f"unknown Jamais Vu variant {variant!r}; one of "
                f"{', '.join(JAMAIS_VU_VARIANTS)}")
        self.variant = variant
        self.saturate = saturate
        self.epoch_retires = epoch_retires
        #: context id -> {program index -> counter}; presence of an
        #: index means "was squashed, do not re-execute speculatively".
        self._tables: Dict[int, Dict[int, int]] = {}
        #: context id -> retires left until the next epoch clear.
        self._epoch_left: Dict[int, int] = {}
        self._tracked = None
        self._blocked = None

    # --- wiring -----------------------------------------------------------

    def attach(self, machine) -> None:
        super().attach(machine)
        self._tracked = machine.metrics.counter(
            "defense.jamais_vu.tracked")
        self._blocked = machine.metrics.counter(
            "defense.jamais_vu.blocked_issues")

    # --- observer stages --------------------------------------------------

    def on_squash(self, core, context: HardwareContext, squashed,
                  reason: str, trigger: Optional[ROBEntry]) -> None:
        """Flag every squashed program index."""
        if not squashed:
            return
        table = self._tables.setdefault(context.context_id, {})
        if self.variant == "counter":
            saturate = self.saturate
            for entry in squashed:
                table[entry.index] = min(
                    table.get(entry.index, 0) + 1, saturate)
        else:
            for entry in squashed:
                table[entry.index] = 1
        if self._tracked is not None:
            self._tracked.inc(len(squashed))

    def on_retire(self, core, context: HardwareContext,
                  entry: ROBEntry) -> None:
        """Decay the tracking state by this variant's rule."""
        cid = context.context_id
        if self.variant == "epoch":
            left = self._epoch_left.get(cid, self.epoch_retires) - 1
            if left <= 0:
                table = self._tables.get(cid)
                if table:
                    table.clear()
                left = self.epoch_retires
            self._epoch_left[cid] = left
            return
        table = self._tables.get(cid)
        if not table or entry.index not in table:
            return
        if self.variant == "counter":
            remaining = table[entry.index] - 1
            if remaining <= 0:
                del table[entry.index]
            else:
                table[entry.index] = remaining
        else:  # clear-on-retire
            del table[entry.index]

    def gate(self, core, context: HardwareContext,
             entry: ROBEntry) -> bool:
        """Hold a flagged entry until it is nonspeculative."""
        table = self._tables.get(context.context_id)
        if not table or entry.index not in table:
            return True
        if nonspeculative(context, entry):
            return True
        if self._blocked is not None:
            self._blocked.inc()
        return False

    # --- introspection (tests / drivers) ----------------------------------

    def flagged(self, context_id: int) -> Dict[int, int]:
        """The tracking table of one context (a copy)."""
        return dict(self._tables.get(context_id, {}))

    # --- snapshot support -------------------------------------------------

    def capture(self) -> tuple:
        return ({cid: dict(table)
                 for cid, table in self._tables.items()},
                dict(self._epoch_left))

    def restore(self, state: tuple) -> None:
        tables, epoch_left = state
        self._tables = {cid: dict(table)
                        for cid, table in tables.items()}
        self._epoch_left = dict(epoch_left)


def jamais_vu_machine(variant: str = "counter", **params
                      ) -> MachineConfig:
    """A platform config with the Jamais Vu mechanism installed."""
    return MachineConfig(defense=DefenseHookConfig(
        scheme="jamais-vu", params={"variant": variant, **params}))


@dataclass
class JamaisVuReport:
    """Speculative transmit executions with and without tracking,
    for the same replay count (the re-execution suppression claim)."""

    variant: str
    replays: int
    transmit_issues_undefended: int
    transmit_issues_defended: int

    @property
    def replay_suppressed(self) -> bool:
        """Re-executions are gone; only the first window leaks."""
        return self.transmit_issues_defended <= 2  # one window's divs


def evaluate_jamais_vu(replays: int = 8, secret: int = 1,
                       variant: str = "counter") -> JamaisVuReport:
    """Replay the Fig. 6 victim *replays* times on the stock platform
    and under Jamais Vu; count speculatively executed transmit
    (divide) instructions each way."""
    from repro.evaluation.defenses.fences import count_transmit_issues
    return JamaisVuReport(
        variant=variant,
        replays=replays,
        transmit_issues_undefended=count_transmit_issues(
            replays, secret),
        transmit_issues_defended=count_transmit_issues(
            replays, secret, machine_config=jamais_vu_machine(variant)))
