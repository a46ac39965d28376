"""Seed derivation and trial-order merging for sweeps.

A *sweep* is a list of trial parameter sets, each run in its own
simulated machine with a seed derived deterministically from
``(master_seed, label, trial index)``.  Because trial seeds depend on
nothing else, and results are merged in trial order, a sweep's outcome
is a pure function of its inputs — identical for 1 worker or N.

Typical use::

    def trial(params, seed):            # top-level, picklable
        machine = build_machine(seed=seed, **params)
        ...
        return measurements

    sweep = run_resilient_sweep(trial, param_grid, master_seed=7,
                                workers=8)
    merged = merge_ordered(sweep.results(), combine)

:func:`~repro.harness.resilience.run_resilient_sweep` is the driver;
this module holds the seed and merge pieces it and the dispatcher
share.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Any, Callable, List, Sequence

#: A trial callable: ``fn(params, seed) -> result``.
TrialFn = Callable[[Any, int], Any]


@functools.lru_cache(maxsize=4096)
def derive_seed(master_seed: int, index: int, label: str = "",
                attempt: int = 0) -> int:
    """Derive a 64-bit trial seed from the sweep's master seed.

    SHA-256 over ``master:label:index`` — stable across processes and
    Python versions (unlike ``hash``), and statistically independent
    across indices, so trials never share RNG streams no matter how
    the sweep is partitioned across workers.

    *attempt* extends the lineage for the fault-tolerant layer
    (:mod:`repro.harness.resilience`): retry *k* of a trial runs with
    ``derive_seed(master, index, label, attempt=k)``, so retries get
    fresh, independent randomness while staying deterministic
    functions of the sweep inputs alone.  ``attempt=0`` hashes the
    historical material, so first-attempt seeds are bit-identical to
    the pre-resilience harness.

    A pure function of its arguments, so it is memoised (bounded): a
    sweep and the matrix built from it (``build_matrix``) share one
    derivation per cell.
    """
    if attempt:
        material = f"{master_seed}:{label}:{index}:{attempt}".encode()
    else:
        material = f"{master_seed}:{label}:{index}".encode()
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class Trial:
    """One scheduled trial of a sweep."""

    index: int
    seed: int
    params: Any


@dataclass
class SweepResult:
    """All trials of one sweep with their results, in trial order."""

    label: str
    master_seed: int
    trials: List[Trial]
    outcomes: List[Any]

    def results(self) -> List[Any]:
        return list(self.outcomes)

    def __iter__(self):
        return iter(zip(self.trials, self.outcomes))

    def __len__(self) -> int:
        return len(self.trials)


def merge_ordered(results: Sequence[Any],
                  combine: Callable[[Any, Any], Any],
                  initial: Any = None) -> Any:
    """Left-fold *combine* over results in trial order.

    For commutative-associative combines (set intersection, counter
    sums) the outcome is order-independent by algebra; for anything
    else, trial order makes it reproducible anyway.
    """
    items = list(results)
    if initial is None:
        if not items:
            raise ValueError("merge_ordered of empty results needs an "
                             "initial value")
        acc, rest = items[0], items[1:]
    else:
        acc, rest = initial, items
    for item in rest:
        acc = combine(acc, item)
    return acc
