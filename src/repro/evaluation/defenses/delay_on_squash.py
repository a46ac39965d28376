"""Delay-on-Squash (Sakalis et al., arXiv:2103.10692).

Where Jamais Vu tracks *which* instructions were squashed,
Delay-on-Squash reacts to the squash itself: after any pipeline
flush the core enters a *shadow* during which side-channel-capable
instructions (loads, stores, multiplies, divides — anything that
perturbs shared microarchitectural state) may not execute
speculatively.  Inside the shadow such an instruction issues only
once it is the oldest instruction still making progress, which also
forces the delayed instructions to release in program order.  The
shadow decays after ``shadow_retires`` architectural retirements
without a further squash — sustained replay pressure therefore keeps
the core permanently in the shadow, while a single benign
misprediction costs a short serialised stretch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional

from repro.config import DefenseHookConfig, MachineConfig
from repro.cpu.context import HardwareContext
from repro.cpu.rob import ROBEntry
from repro.evaluation.defenses.mechanisms import (
    DefenseMechanism,
    nonspeculative,
    register_mechanism,
)

#: Op classes treated as side-channel-capable: they leave observable
#: residue in caches (load/store) or occupy contended ports (mul/div,
#: the Fig. 10 channel).
SIDE_CHANNEL_CLASSES: FrozenSet[str] = frozenset(
    {"load", "store", "mul", "div", "fpalu"})


@register_mechanism("delay-on-squash")
class DelayOnSquashMechanism(DefenseMechanism):
    """Post-squash shadow gating side-channel-capable instructions."""

    scheme = "delay-on-squash"

    def __init__(self, shadow_retires: int = 64,
                 classes: FrozenSet[str] = SIDE_CHANNEL_CLASSES):
        self.shadow_retires = shadow_retires
        self.classes = frozenset(classes)
        #: context id -> retirements left before the shadow lifts.
        self._shadow: Dict[int, int] = {}
        self._delayed = None

    def attach(self, machine) -> None:
        super().attach(machine)
        self._delayed = machine.metrics.counter(
            "defense.delay_on_squash.delayed_issues")

    def on_squash(self, core, context: HardwareContext, squashed,
                  reason: str, trigger: Optional[ROBEntry]) -> None:
        """Arm (or re-arm) the context's shadow."""
        self._shadow[context.context_id] = self.shadow_retires

    def on_retire(self, core, context: HardwareContext,
                  entry: ROBEntry) -> None:
        """Count one retirement toward lifting the shadow."""
        cid = context.context_id
        left = self._shadow.get(cid, 0)
        if left > 0:
            self._shadow[cid] = left - 1

    def gate(self, core, context: HardwareContext,
             entry: ROBEntry) -> bool:
        """Inside the shadow, hold side-channel-capable entries until
        they are nonspeculative."""
        if not self._shadow.get(context.context_id):
            return True
        if entry.op_cls not in self.classes:
            return True
        if nonspeculative(context, entry):
            return True
        if self._delayed is not None:
            self._delayed.inc()
        return False

    def in_shadow(self, context_id: int) -> bool:
        """True while *context_id* is inside a post-squash shadow."""
        return bool(self._shadow.get(context_id))

    def capture(self) -> tuple:
        return (dict(self._shadow),)

    def restore(self, state: tuple) -> None:
        (shadow,) = state
        self._shadow = dict(shadow)


def delay_on_squash_machine(**params) -> MachineConfig:
    """A platform config with Delay-on-Squash installed."""
    return MachineConfig(defense=DefenseHookConfig(
        scheme="delay-on-squash", params=dict(params)))


@dataclass
class DelayOnSquashReport:
    """Speculative transmit executions with and without the shadow."""

    replays: int
    transmit_issues_undefended: int
    transmit_issues_defended: int

    @property
    def replay_suppressed(self) -> bool:
        """Only the pre-shadow first window leaks."""
        return self.transmit_issues_defended <= 2  # one window's divs


def evaluate_delay_on_squash(replays: int = 8,
                             secret: int = 1) -> DelayOnSquashReport:
    """Replay the Fig. 6 victim *replays* times on the stock platform
    and under Delay-on-Squash; count speculatively executed transmit
    (divide) instructions each way."""
    from repro.evaluation.defenses.fences import count_transmit_issues
    return DelayOnSquashReport(
        replays=replays,
        transmit_issues_undefended=count_transmit_issues(
            replays, secret),
        transmit_issues_defended=count_transmit_issues(
            replays, secret,
            machine_config=delay_on_squash_machine()))
