"""Taint-based leakage oracle (InSpectre-style, arXiv:1911.00868).

MicroScope's evaluation decides "does this defense work" statistically
(:func:`repro.evaluation.classify_cell`).  This package turns the same
question into a checkable information-flow property: secrets seed
taint, taint propagates through the simulated pipeline, and any
*observable* microarchitectural event that depends on taint — cache
set/way touches, issue-port choices, page-walk latency, squash/replay
boundaries, OS-visible faults — raises a structured
:class:`LeakageEvent`.  "Oracle clean" is then a sound certificate
that no secret-dependent observable fired during the run.

Typical use::

    from repro.oracle import OracleConfig, TaintOracle, activate

    oracle = TaintOracle(OracleConfig())
    with activate(oracle):
        ...  # build machines, register secrets, run the attack
    print(oracle.summary.verdict, oracle.summary.counts)

or, one level up, ``Experiment(oracle=True)`` /
``MatrixRunner(oracle=True)`` and the ``python -m repro oracle``
cross-validation pass (:mod:`repro.tools.oraclecheck`).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.oracle.events import (EVENT_KINDS, REASONS, LeakageEvent,
                                     LeakageSummary)
    from repro.oracle.runtime import (activate, current, note_machine,
                                      note_secret_write)
    from repro.oracle.tracker import (OracleConfig, TaintOracle,
                                      attach_machine,
                                      oracle_consistency_verify)

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.oracle.events": (
        "EVENT_KINDS", "REASONS", "LeakageEvent", "LeakageSummary"),
    "repro.oracle.runtime": (
        "activate", "current", "note_machine", "note_secret_write"),
    "repro.oracle.tracker": (
        "OracleConfig", "TaintOracle", "attach_machine",
        "oracle_consistency_verify"),
})

__all__ = [
    "EVENT_KINDS",
    "LeakageEvent",
    "LeakageSummary",
    "OracleConfig",
    "REASONS",
    "TaintOracle",
    "activate",
    "attach_machine",
    "current",
    "note_machine",
    "note_secret_write",
    "oracle_consistency_verify",
]
