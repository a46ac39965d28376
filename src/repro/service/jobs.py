"""Job specifications and lifecycle records for the experiment service.

A *job* is one attack × defense matrix: a queue of
``(attack, defense, config, seed)`` cells executed through the same
trial function, seed lineage and classification code as a local
:class:`repro.evaluation.MatrixRunner` run — so a job's payload is
bit-identical to what the client would have computed itself.

Job identity is *content-addressed*: :func:`job_id` hashes the
canonical JSON of the spec, so resubmitting the same matrix maps to
the same job directory (journal, ledger, result) and therefore
resumes instead of recomputing — the service-level analogue of the
:class:`~repro.memo.store.TrialStore` discipline.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.memo.keys import canonical_json

#: Job lifecycle states, in the order they normally occur.
JOB_STATES = ("queued", "running", "done", "failed")


@dataclass(frozen=True)
class JobSpec:
    """What to run: one matrix job, declaratively.

    Empty ``attacks``/``defenses`` mean "every registered one" — the
    same convention as :class:`repro.evaluation.MatrixRunner`.
    ``workers`` is the number of sharded cell executors the server
    runs for this job; each executor runs its cells in-process (see
    :func:`repro.harness.dispatch.dispatch`).
    """

    attacks: Tuple[str, ...] = ()
    defenses: Tuple[str, ...] = ()
    overrides: Mapping[str, Mapping[str, Any]] = field(
        default_factory=dict)
    master_seed: Optional[int] = None
    label: Optional[str] = None
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "attacks", tuple(self.attacks))
        object.__setattr__(self, "defenses", tuple(self.defenses))
        object.__setattr__(
            self, "overrides",
            {str(a): dict(o) for a, o in dict(self.overrides).items()})
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    # --- resolution -------------------------------------------------------

    def resolved(self) -> "JobSpec":
        """The spec with defaults and registry wildcards filled in
        (and attack and defense names validated) — the
        canonical form jobs are hashed and executed under."""
        from repro.evaluation.attacks import attack_names, get_attack
        from repro.evaluation.defenses import defense_names, get_defense
        from repro.evaluation.matrix import (
            DEFAULT_LABEL,
            DEFAULT_MASTER_SEED,
        )
        attacks = self.attacks or attack_names()
        defenses = self.defenses or defense_names()
        for name in attacks:
            get_attack(name)
        for name in defenses:
            get_defense(name)
        return JobSpec(
            attacks=attacks, defenses=defenses,
            overrides=self.overrides,
            master_seed=(DEFAULT_MASTER_SEED
                         if self.master_seed is None
                         else int(self.master_seed)),
            label=(DEFAULT_LABEL if self.label is None
                   else str(self.label)),
            workers=self.workers)

    def cells(self) -> List[Tuple[str, str, Dict[str, Any]]]:
        """The job's trial parameter list, in cell-seed order."""
        from repro.evaluation.matrix import matrix_params
        spec = self.resolved()
        return matrix_params(spec.attacks, spec.defenses,
                             spec.overrides)

    @property
    def trial_count(self) -> int:
        """How many cells the job executes."""
        return len(self.cells())

    # --- serialisation ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (stable key order via sorted dumps)."""
        return {
            "attacks": list(self.attacks),
            "defenses": list(self.defenses),
            "label": self.label,
            "master_seed": self.master_seed,
            "overrides": {a: dict(o)
                          for a, o in self.overrides.items()},
            "workers": self.workers,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "JobSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Any key :meth:`to_dict` does not produce raises ``ValueError``
        naming it: a misspelled axis must not silently widen the job
        to every registered attack or defense.
        """
        unknown = sorted(set(payload) - _SPEC_KEYS)
        if unknown:
            raise ValueError(
                f"unknown job spec key(s): {', '.join(unknown)}; "
                f"expected a subset of {', '.join(sorted(_SPEC_KEYS))}")
        return cls(
            attacks=tuple(payload.get("attacks") or ()),
            defenses=tuple(payload.get("defenses") or ()),
            overrides=payload.get("overrides") or {},
            master_seed=payload.get("master_seed"),
            label=payload.get("label"),
            workers=int(payload.get("workers", 1)))


#: The keys :meth:`JobSpec.to_dict` writes and :meth:`JobSpec.from_dict`
#: accepts.
_SPEC_KEYS = frozenset(
    ("attacks", "defenses", "label", "master_seed", "overrides",
     "workers"))


def job_id(spec: JobSpec) -> str:
    """Content address of a job: SHA-256 over the canonical JSON of
    the *resolved* spec, truncated to 16 hex chars.  Identical
    matrices — however they were spelled (wildcards, dict order) —
    get identical ids, so resubmission resumes the same journal.

    ``workers`` is deliberately excluded: how many shards execute a
    matrix never changes its results, so it must not change its
    identity either.
    """
    resolved = spec.resolved()
    material = canonical_json({
        "attacks": list(resolved.attacks),
        "defenses": list(resolved.defenses),
        "label": resolved.label,
        "master_seed": resolved.master_seed,
        "overrides": resolved.overrides,
    })
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


@dataclass
class JobRecord:
    """Server-side lifecycle state of one job."""

    job: str
    spec: JobSpec
    state: str = "queued"
    done: int = 0
    total: int = 0
    error: str = ""
    #: MetricsRegistry dump recorded when the job finishes.
    metrics: Optional[Dict[str, Any]] = None
    #: TrialStore counter deltas for this job's run.
    cache: Optional[Dict[str, int]] = None
    #: Host seconds the run took (accounting only; never part of the
    #: result payload, which must stay bit-identical across runs).
    wall_seconds: float = 0.0

    def status(self) -> Dict[str, Any]:
        """The JSON status payload served to clients."""
        return {
            "job": self.job,
            "state": self.state,
            "done": self.done,
            "total": self.total,
            "error": self.error or None,
            "cache": self.cache,
            "metrics": self.metrics,
            "wall_seconds": round(self.wall_seconds, 6),
            "spec": self.spec.to_dict(),
        }


__all__ = ["JOB_STATES", "JobRecord", "JobSpec", "job_id"]
