"""Thread-local oracle activation and import-light hook shims.

The simulator's hot paths (victim setup, machine construction) must
not import the tracker — or pay anything — when no oracle is active.
This module holds the one piece of shared state, a thread-local
"active oracle" slot, plus the tiny notification shims the rest of
the codebase calls unconditionally:

* :func:`note_machine` — called from ``Machine.__init__`` (mirroring
  the profiler's ``note_machine`` idiom) so machines built while an
  oracle is active get its observer attached.
* :func:`note_secret_write` — called from ``write_secret`` /
  ``write_ciphertext`` style victim helpers to seed taint.

Both are no-ops unless a :class:`~repro.oracle.tracker.TaintOracle`
has been activated on the *current thread* via :func:`activate`
(thread-local because the experiment harness and the job service run
trials on worker threads, each needing its own oracle).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator, Optional

_active = threading.local()


def current() -> Optional[Any]:
    """The oracle active on this thread, or ``None``."""
    return getattr(_active, "oracle", None)


@contextmanager
def activate(oracle: Any) -> Iterator[Any]:
    """Make *oracle* the active oracle on this thread for the block.

    Nesting restores the previous oracle on exit, so scoped control
    runs (e.g. oraclecheck's secret-free leg) compose.
    """
    previous = current()
    _active.oracle = oracle
    try:
        yield oracle
    finally:
        _active.oracle = previous


def note_machine(machine: Any) -> None:
    """Attach the active oracle's observer to a freshly built machine.

    No-op when no oracle is active on this thread.  The attach is
    idempotent per machine (warm-start caches reuse machines across
    trials) and installs a *forwarding hub*: it stays attached after
    the oracle deactivates but forwards to :func:`current`, costing a
    ``None``-check when idle.
    """
    oracle = current()
    if oracle is None:
        return
    from repro.oracle.tracker import attach_machine

    attach_machine(machine)


def note_secret_write(process: Any, va: int, size: int = 8) -> None:
    """Register ``[va, va+size)`` in *process* as secret-tainted.

    Victim helpers call this from every secret/ciphertext write; it
    is a no-op unless an oracle is active on this thread *and* its
    config has ``seed_secrets`` enabled.
    """
    oracle = current()
    if oracle is not None:
        oracle.add_secret_region(process, va, size)
