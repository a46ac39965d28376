"""The core's observer protocol: the one way to watch or steer the
pipeline.

An observer is any object carrying some of the stage methods of
:class:`Observer`.  ``Core.attach(observer)`` wires it in and
``Core.detach(observer)`` takes it out again.  Subclassing
:class:`Observer` is optional: a duck-typed object works the same, and
the core calls an observer only at the stages it defines.  For each
stage the core keeps one tuple of bound methods, rebuilt on every
attach/detach, so a stage nobody watches costs one empty-tuple loop.

Observers run in attach order at every stage.  Every method receives
the :class:`~repro.cpu.core.Core` first (for the cycle, ports and
memory system), then the :class:`~repro.cpu.context.HardwareContext`
and the :class:`~repro.cpu.rob.ROBEntry` concerned.  The pipeline
tracers, the leakage oracle, the defense mechanisms and the attacks'
SMT sibling monitors are all observers.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from repro.isa.instructions import Opcode

#: The stage methods, one dispatch tuple each.
STAGES: Tuple[str, ...] = ("on_decode", "on_issue", "on_complete",
                           "on_retire", "on_squash", "on_pte_race",
                           "gate")


class Observer:
    """The protocol, with do-nothing defaults.  The core skips an
    observer at every stage whose method is still the default here."""

    def on_decode(self, core: Any, context: Any, entry: Any) -> None:
        """*entry* was decoded and its operands resolved.

        The context's rename map is not yet updated for *entry*'s
        destination, so ``context.rename.get(reg)`` still names the
        in-flight producer each source register was read from (None:
        architectural state).  After this call that identity is
        unrecoverable, as same-register read/write instructions
        overwrite it.
        """

    def on_issue(self, core: Any, context: Any, entry: Any) -> None:
        """*entry* began execution on ``entry.port_name`` this cycle."""

    def on_complete(self, core: Any, context: Any, entry: Any) -> None:
        """A non-squashed *entry* finished executing, after any
        mispredict squash it caused and after the PTE race.  A load
        still faulted here (``entry.faulted``) carries no value and
        will trap at retire."""

    def on_retire(self, core: Any, context: Any, entry: Any) -> None:
        """*entry* retired architecturally."""

    def on_squash(self, core: Any, context: Any, squashed: Sequence,
                  reason: str, trigger: Optional[Any]) -> None:
        """A pipeline flush removed *squashed* (possibly empty).

        *reason* is ``"page-fault"``, ``"mispredict"``,
        ``"memory-order"``, ``"interrupt:<kind>"`` or
        ``"txn-abort:<kind>"``; *trigger* is the entry that caused it
        (None for interrupts and aborts).
        """

    def on_pte_race(self, core: Any, context: Any, entry: Any) -> bool:
        """§7.2 PTE race: a faulted load just finished its walk.
        Return True when the OS won the race and set the present bit
        before the walker read the leaf entry; the load then completes
        normally instead of faulting.  The first True wins."""
        return False

    def gate(self, core: Any, context: Any, entry: Any) -> bool:
        """May *entry* begin execution now?  False keeps it in the
        ready queue for a later cycle without using a port.  Gates are
        consulted in attach order and the first False stops the
        check."""
        return True


class UnitIssueCounter(Observer):
    """Counts one context's issues of ``FDIV`` and ``MUL``: the SMT
    sibling that watches which unit a victim's secret-dependent code
    uses (divider on one branch side, multiplier on the other).
    ``counts`` is one dict for the observer's lifetime, so readers may
    hold it."""

    def __init__(self, context_id: int = 0):
        self.context_id = context_id
        self.counts: Dict[str, int] = {"div": 0, "mul": 0}

    def on_issue(self, core: Any, context: Any, entry: Any) -> None:
        if context.context_id != self.context_id:
            return
        op = entry.instr.op
        if op is Opcode.FDIV:
            self.counts["div"] += 1
        elif op is Opcode.MUL:
            self.counts["mul"] += 1

    def reset(self) -> None:
        """Start a new observation window."""
        self.counts["div"] = self.counts["mul"] = 0
