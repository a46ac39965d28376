"""Mechanism invariants, checked on real matrix cells.

A gate's verdicts are the only way a defense pushes back on the core,
so what gating means is pinned here independently of how the core
schedules: an ``on_issue`` checker walks the issuing context's ROB
itself and records every issue a defense promised to hold.

* Jamais Vu: a flagged program index (:meth:`JamaisVuMechanism.flagged`)
  never issues while an older ROB entry is incomplete or faulted.
* Delay-on-Squash: inside a shadow (:meth:`DelayOnSquashMechanism.in_shadow`)
  no entry of a gated class (``classes``) issues while an older entry
  is incomplete or faulted.

The checker is attached to every machine a cell builds by routing
``Machine.run`` through a wrapper, as ``tests/cpu/test_fast_forward.py``
does to compare drivers.
"""

from contextlib import contextmanager

import pytest

from repro.cpu.machine import Machine
from repro.cpu.observer import Observer
from repro.evaluation.attacks import get_attack
from repro.evaluation.defenses import (
    DelayOnSquashMechanism,
    JamaisVuMechanism,
    get_defense,
)
from repro.snapshot import clear_cache


class SpeculativeIssueChecker(Observer):
    """Records each issue of an entry *mechanism* guards while an older
    ROB entry is incomplete or faulted; ``checked`` counts the guarded
    issues it looked at."""

    def __init__(self, mechanism):
        self.mechanism = mechanism
        self.checked = 0
        self.violations = []

    def _guarded(self, context, entry) -> bool:
        mechanism = self.mechanism
        if isinstance(mechanism, JamaisVuMechanism):
            return entry.index in mechanism.flagged(context.context_id)
        return (mechanism.in_shadow(context.context_id)
                and entry.op_cls in mechanism.classes)

    def on_issue(self, core, context, entry):
        if not self._guarded(context, entry):
            return
        self.checked += 1
        for older in context.rob.entries:
            if older.seq >= entry.seq:
                return
            if not older.completed or older.faulted:
                self.violations.append(
                    (core.cycle, context.context_id, entry.seq,
                     entry.index, older.seq))
                return


@contextmanager
def _checked_machines():
    """Attach a :class:`SpeculativeIssueChecker` to every machine that
    runs in this block; yields the list of checkers."""
    checkers = []
    seen = set()
    original = Machine.run

    def checking(machine, *args, **kwargs):
        if id(machine) not in seen:
            seen.add(id(machine))
            checker = SpeculativeIssueChecker(machine.defense)
            machine.attach(checker)
            checkers.append(checker)
        return original(machine, *args, **kwargs)

    clear_cache()
    Machine.run = checking
    try:
        yield checkers
    finally:
        Machine.run = original
        clear_cache()


_OVERRIDES = {
    "cf-cache": {"replays": 3},
    "port-contention": {"measurements": 20, "calibrate_samples": 40},
}


@pytest.mark.parametrize("defense", ["jv-counter", "jv-epoch", "jv-cor",
                                     "delay-on-squash"])
@pytest.mark.parametrize("attack", sorted(_OVERRIDES))
def test_guarded_entries_never_issue_speculatively(attack, defense):
    spec = get_defense(defense)
    with _checked_machines() as checkers:
        metrics = get_attack(attack).runner(spec, _OVERRIDES[attack])
    assert metrics.error is None
    assert checkers
    assert all(isinstance(checker.mechanism,
                          (JamaisVuMechanism, DelayOnSquashMechanism))
               for checker in checkers)
    assert [v for c in checkers for v in c.violations] == []
    assert sum(checker.checked for checker in checkers) > 0
