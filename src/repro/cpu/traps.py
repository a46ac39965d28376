"""Trap interface between the core and supervisor software.

The core never contains OS policy: when a faulting instruction reaches
the head of the ROB (precise exception) or an interrupt is taken, it
calls a :class:`TrapHandler` and obeys the returned
:class:`TrapAction`.  The kernel package implements the handler; the
MicroScope module claims faults on its page-fault path (Fig. 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.vm.faults import PageFault


@dataclass
class TrapAction:
    """What the supervisor tells the core to do after a trap.

    ``cost`` simulated cycles pass with the context blocked (the kernel
    runs on the victim's logical core); then the context resumes at
    ``resume_index`` (defaults to the faulting instruction — the replay
    semantics the attack relies on) unless ``halt`` is set.
    """

    cost: int = 0
    resume_index: Optional[int] = None
    halt: bool = False


class TrapHandler:
    """Interface implemented by the simulated kernel."""

    def handle_page_fault(self, context, fault: PageFault) -> TrapAction:
        raise NotImplementedError

    def handle_interrupt(self, context, reason: str) -> TrapAction:
        raise NotImplementedError


class PanicTrapHandler(TrapHandler):
    """Default handler: any trap is a simulation configuration error."""

    def handle_page_fault(self, context, fault: PageFault) -> TrapAction:
        raise RuntimeError(f"unhandled {fault.describe()}")

    def handle_interrupt(self, context, reason: str) -> TrapAction:
        raise RuntimeError(f"unhandled interrupt: {reason}")
