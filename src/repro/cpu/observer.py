"""The machine's observer protocol: the one way to watch or steer the
simulated machine.

An observer is any object carrying some of the stage methods of
:class:`Observer`.  ``Machine.attach(observer)`` wires it in and
``Machine.detach(observer)`` takes it out again.  Subclassing
:class:`Observer` is optional: a duck-typed object works the same.
Each stage is fired by one layer — the core (:data:`CORE_STAGES`),
the kernel (:data:`KERNEL_STAGES`, whose tuples live on the machine)
or the memory hierarchy (:data:`MEMORY_STAGES`) — which keeps one
tuple of bound methods per stage, rebuilt by :func:`bind_stages` on
every attach/detach, so a stage nobody watches costs one empty-tuple
loop.

Observers run in attach order at every stage.  Every method receives
the :class:`~repro.cpu.core.Core` first, then the
:class:`~repro.cpu.context.HardwareContext` and the entry or fault
concerned; ``on_mem_access`` is the one exception, as the hierarchy
holds no core.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from repro.isa.instructions import Opcode

#: The stages the core fires.
CORE_STAGES: Tuple[str, ...] = ("on_decode", "on_issue", "on_complete",
                                "on_retire", "on_squash", "on_pte_race",
                                "gate")
#: The stages the kernel fires; their tuples live on the machine.
KERNEL_STAGES: Tuple[str, ...] = ("on_fault", "on_interrupt")
#: The stage the memory hierarchy fires.
MEMORY_STAGES: Tuple[str, ...] = ("on_mem_access",)
#: Every stage method, one dispatch tuple each.
STAGES: Tuple[str, ...] = CORE_STAGES + KERNEL_STAGES + MEMORY_STAGES


class Observer:
    """The protocol, with do-nothing defaults.  An observer is skipped
    at every stage whose method is still the default here."""

    def on_decode(self, core: Any, context: Any, entry: Any) -> None:
        """*entry* was decoded and its operands resolved.

        The context's rename map is not yet updated for *entry*'s
        destination, so ``context.rename.get(reg)`` still names the
        in-flight producer each source register was read from (None:
        architectural state).  After this call that identity is
        unrecoverable, as same-register read/write instructions
        overwrite it.

        Decode may run in a front-end-only cycle, which judges only the
        entries fetch adds to decide whether the next cycle is one too.
        So a decode observer may record, but must not change what
        another stage can do (ports, the event heap, context state,
        other entries); no observer in this package does.
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
        consulted in attach order, before the port search, and the
        first False stops the check; only for entries dispatch reaches
        (at or older than the oldest in-flight fence, the fence itself
        once every older entry has completed), never in skipped or
        front-end-only cycles."""
        return True

    def on_fault(self, core: Any, context: Any, fault: Any) -> Any:
        """The Fig. 9 trampoline: return a ``TrapAction`` to claim the
        page *fault*, or None to pass it on to the next observer and
        then to demand paging.  The first claim wins."""

    def on_interrupt(self, core: Any, context: Any, reason: str) -> Any:
        """Return a ``TrapAction`` to claim the interrupt, or None for
        the kernel's default interrupt cost.  The first claim wins."""

    def on_mem_access(self, paddr: int, is_write: bool, hit_level: int,
                      latency: int) -> None:
        """A demand access hit at *hit_level* (``len(levels)``: DRAM).
        No core argument: the walker and the module's probes access the
        hierarchy too."""


def bind_stages(layer: Any, stages: Iterable[str],
                observers: Sequence[Any]) -> None:
    """Set ``layer._<stage>`` for each of *stages* to the bound methods
    of the *observers* that define it beyond :class:`Observer`'s
    no-op default, in attach order."""
    for stage in stages:
        default = getattr(Observer, stage)
        methods = (getattr(observer, stage, None) for observer in observers)
        setattr(layer, "_" + stage, tuple(
            method for method in methods if method is not None
            and getattr(method, "__func__", None) is not default))


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
