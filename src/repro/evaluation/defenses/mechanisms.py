"""Machine-level defense mechanisms behind ``MachineConfig.defense``.

Every defense that changes the hardware — the §8 fences and the
follow-on literature's Jamais Vu, Delay-on-Squash, SIMF and LEASH —
is a small state machine that watches the machine as an observer
(:mod:`repro.cpu.observer`: ``on_squash``, ``on_retire``,
``on_issue``) and pushes back through its ``gate`` or by setting
context state.  Each one is a :class:`DefenseMechanism`:

* ``attach(machine)`` attaches it with ``machine.attach`` and creates
  its metric counters (identity wiring, done once at machine
  construction);
* ``capture()`` / ``restore()`` clone its mutable state, which the
  machine appends to its own snapshot payload — so Replayer
  checkpoints and window memoization stay bit-exact with a mechanism
  installed.

A mechanism is selected by :class:`~repro.config.DefenseHookConfig`:
``Machine.__init__`` resolves ``config.defense.scheme`` against the
:data:`MECHANISMS` registry and installs the result.  Because every
attack runner passes ``machine=defense.machine`` through unchanged,
a new defense reaches all seven attack rows with zero attack-side
code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping

from repro.cpu.context import HardwareContext
from repro.cpu.observer import Observer
from repro.cpu.rob import COMPLETED, ROBEntry

if TYPE_CHECKING:
    from repro.cpu.config import DefenseHookConfig


class DefenseMechanism(Observer):
    """Base class: a defense attached to the machine as an observer."""

    #: Registry key; subclasses override.
    scheme: str = ""

    def attach(self, machine) -> None:
        """Attach to *machine* (called once, at construction);
        subclasses extend it to create their metric counters."""
        machine.attach(self)

    def capture(self) -> tuple:
        """Clone the mechanism's mutable state (snapshot support)."""
        return ()

    def restore(self, state: tuple) -> None:
        """Inverse of :meth:`capture`."""


def nonspeculative(context: HardwareContext, entry: ROBEntry) -> bool:
    """True when *entry* is the oldest instruction still making
    progress: every older ROB entry has completed without a fault.

    This is the release condition squash-tracking defenses gate on —
    a faulted older entry is about to squash *entry* anyway, and an
    incomplete one means *entry* would execute in its speculative
    shadow.  The entry at the ROB head satisfies it vacuously, so a
    gated context always makes forward progress.
    """
    seq = entry.seq
    for older in context.rob.entries:
        if older.seq >= seq:
            return True
        if older.state is not COMPLETED or older.fault is not None:
            return False
    return True


#: Scheme name → factory taking the ``DefenseHookConfig.params`` dict.
MECHANISMS: Dict[str, Callable[..., DefenseMechanism]] = {}


def register_mechanism(scheme: str
                       ) -> Callable[[Callable[..., DefenseMechanism]],
                                     Callable[..., DefenseMechanism]]:
    """Class decorator registering a mechanism factory under *scheme*."""
    def decorate(factory: Callable[..., DefenseMechanism]
                 ) -> Callable[..., DefenseMechanism]:
        if scheme in MECHANISMS:
            raise ValueError(f"mechanism {scheme!r} already registered")
        MECHANISMS[scheme] = factory
        return factory
    return decorate


def build_mechanism(config: "DefenseHookConfig") -> DefenseMechanism:
    """Instantiate the mechanism *config* names (unattached)."""
    try:
        factory = MECHANISMS[config.scheme]
    except KeyError:
        raise KeyError(
            f"unknown defense scheme {config.scheme!r}; registered: "
            f"{', '.join(sorted(MECHANISMS))}") from None
    params: Mapping[str, Any] = config.params or {}
    return factory(**dict(params))


def install_defense(machine, config: "DefenseHookConfig"
                    ) -> DefenseMechanism:
    """Build the mechanism *config* names and attach it to *machine*."""
    mechanism = build_mechanism(config)
    mechanism.attach(machine)
    return mechanism


# The scheme modules self-register on import; the package __init__
# (which Python always runs before any submodule import) imports all
# of them, so the registry is complete by the time anything can call
# build_mechanism.
