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
``Machine.__init__`` resolves ``config.defense.scheme`` through
:func:`build_mechanism` and installs the result.  The scheme names its
module in :data:`MECHANISM_MODULES`; the first build of a scheme
imports that module, whose :func:`register_mechanism` decorator puts
the factory in :data:`MECHANISMS`.  Because every
attack runner passes ``machine=defense.machine`` through unchanged,
a new defense reaches all seven attack rows with zero attack-side
code.
"""

from __future__ import annotations

import importlib
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


#: Scheme name → the module that defines and registers its mechanism.
#: The table is the list of schemes: :func:`build_mechanism` imports a
#: scheme's module on its first use, and :func:`register_mechanism`
#: refuses a scheme that is not listed here.
MECHANISM_MODULES: Dict[str, str] = {
    "fences": "repro.evaluation.defenses.fences",
    "jamais-vu": "repro.evaluation.defenses.jamais_vu",
    "delay-on-squash": "repro.evaluation.defenses.delay_on_squash",
    "simf": "repro.evaluation.defenses.simf",
    "leash": "repro.evaluation.defenses.leash",
}

#: Scheme name → factory taking the ``DefenseHookConfig.params`` dict,
#: for each scheme whose module has been imported.
MECHANISMS: Dict[str, Callable[..., DefenseMechanism]] = {}


def register_mechanism(scheme: str
                       ) -> Callable[[Callable[..., DefenseMechanism]],
                                     Callable[..., DefenseMechanism]]:
    """Class decorator registering a mechanism factory under *scheme*,
    which :data:`MECHANISM_MODULES` must map to the factory's module."""
    def decorate(factory: Callable[..., DefenseMechanism]
                 ) -> Callable[..., DefenseMechanism]:
        module = MECHANISM_MODULES.get(scheme)
        if module is None:
            raise ValueError(
                f"mechanism {scheme!r} is not in MECHANISM_MODULES")
        if module != factory.__module__:
            raise ValueError(
                f"mechanism {scheme!r} is defined in "
                f"{factory.__module__}, but MECHANISM_MODULES maps it "
                f"to {module}")
        if scheme in MECHANISMS:
            raise ValueError(f"mechanism {scheme!r} already registered")
        MECHANISMS[scheme] = factory
        return factory
    return decorate


def build_mechanism(config: "DefenseHookConfig") -> DefenseMechanism:
    """Instantiate the mechanism *config* names (unattached)."""
    scheme = config.scheme
    if scheme not in MECHANISMS:
        if scheme not in MECHANISM_MODULES:
            raise KeyError(
                f"unknown defense scheme {scheme!r}; registered: "
                f"{', '.join(sorted(MECHANISM_MODULES))}")
        importlib.import_module(MECHANISM_MODULES[scheme])
    params: Mapping[str, Any] = config.params or {}
    return MECHANISMS[scheme](**dict(params))


def install_defense(machine, config: "DefenseHookConfig"
                    ) -> DefenseMechanism:
    """Build the mechanism *config* names and attach it to *machine*."""
    mechanism = build_mechanism(config)
    mechanism.attach(machine)
    return mechanism
