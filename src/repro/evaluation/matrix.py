"""The attack × defense matrix runner.

The whole matrix is *one* resilient sweep: each (attack, defense)
cell is a trial, executed through the :class:`repro.Experiment`
facade, so per-cell seeds, ``FaultPolicy`` retries, journalled resume
and worker-count-invariant merges all come from the existing
machinery.  Trial parameters are plain ``(attack, defense,
overrides)`` tuples of strings and dicts — registries are resolved
inside the trial — so cells pickle, journal and replay cleanly.

Classification happens in the parent against the same attack's
``"none"`` cell, producing the §8 verdict per cell: ``defeated`` /
``degraded`` / ``unaffected``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.evaluation.attacks import attack_names, get_attack
from repro.evaluation.classify import CellMetrics, classify_cell
from repro.evaluation.defenses import defense_names, get_defense
from repro.experiment import Experiment
from repro.harness import FaultPolicy, derive_seed
from repro.harness.chaos import ChaosPlan

#: Fixed master seed of the published results (the paper's year).
DEFAULT_MASTER_SEED = 2019

#: Default sweep label — part of the seed lineage, so changing it
#: changes every cell's seed.
DEFAULT_LABEL = "evaluation-matrix"


def _cell_trial(params: Any, seed: int) -> Dict[str, Any]:
    """One matrix cell as a harness trial (module-level so worker
    pools can pickle it).  Attack exceptions become ``error`` metrics
    rather than trial faults: a defense that *crashes* the attack is
    a deterministic result (the attack is defeated), not a flaky
    worker worth retrying."""
    attack_name, defense_name, overrides = params
    spec = get_attack(attack_name)
    defense = get_defense(defense_name)
    try:
        metrics = spec.runner(defense, dict(overrides or {}))
    except Exception as exc:  # noqa: BLE001 - defense may break the attack
        metrics = CellMetrics(
            error=f"{type(exc).__name__}: {exc}", chance=spec.chance)
    if defense.notes:
        metrics.notes = tuple(metrics.notes) + tuple(defense.notes)
    return metrics.to_dict()


def _cell_trial_oracle(params: Any, seed: int) -> Dict[str, Any]:
    """The oracle-instrumented cell trial: same cell, run under an
    active :class:`~repro.oracle.TaintOracle`, with the leakage
    summary embedded under ``detail["oracle"]``.  A separate
    module-level function (rather than a flag on :func:`_cell_trial`)
    so oracle-off sweeps keep their exact historical content address
    in the trial store."""
    from repro.oracle import OracleConfig, TaintOracle, activate
    attack_name, defense_name, overrides, oracle_cfg = params
    oracle = TaintOracle(OracleConfig.from_dict(oracle_cfg))
    with activate(oracle):
        payload = _cell_trial((attack_name, defense_name, overrides),
                              seed)
    payload["detail"]["oracle"] = oracle.summary.to_dict()
    return payload


@dataclass
class MatrixCell:
    """One evaluated (attack, defense) pair."""

    attack: str
    defense: str
    metrics: CellMetrics
    #: ``defeated`` / ``degraded`` / ``unaffected``.
    classification: str = "defeated"
    #: The exact seed the cell's trial ran with (resume-proof).
    seed: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic JSON-ready form."""
        return {
            "attack": self.attack,
            "classification": self.classification,
            "defense": self.defense,
            "metrics": self.metrics.to_dict(),
            "seed": self.seed,
        }


@dataclass
class EvaluationMatrix:
    """The classified cross-product, plus rendering helpers."""

    master_seed: int
    label: str
    attacks: Tuple[str, ...]
    defenses: Tuple[str, ...]
    cells: Dict[Tuple[str, str], MatrixCell]

    def cell(self, attack: str, defense: str) -> MatrixCell:
        """The cell for one (attack, defense) pair."""
        return self.cells[(attack, defense)]

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic JSON payload (sorted cell keys)."""
        return {
            "attacks": list(self.attacks),
            "cells": {f"{a}/{d}": self.cells[(a, d)].to_dict()
                      for a, d in sorted(self.cells)},
            "defenses": list(self.defenses),
            "label": self.label,
            "master_seed": self.master_seed,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]
                  ) -> "EvaluationMatrix":
        """Rebuild a matrix from :meth:`to_dict` output."""
        cells: Dict[Tuple[str, str], MatrixCell] = {}
        for key, cell in payload["cells"].items():
            attack, defense = key.split("/", 1)
            cells[(attack, defense)] = MatrixCell(
                attack=attack, defense=defense,
                metrics=CellMetrics.from_dict(cell["metrics"]),
                classification=cell["classification"],
                seed=cell["seed"])
        return cls(master_seed=payload["master_seed"],
                   label=payload["label"],
                   attacks=tuple(payload["attacks"]),
                   defenses=tuple(payload["defenses"]),
                   cells=cells)

    # --- rendering -----------------------------------------------------

    def _cell_label(self, attack: str, defense: str) -> str:
        cell = self.cells[(attack, defense)]
        if defense == "none":
            if cell.metrics.accuracy is None:
                return "error"
            return f"leaks ({cell.metrics.accuracy:.2f})"
        return cell.classification

    def summary_rows(self) -> List[List[str]]:
        """Header + one row per attack, for table renderers."""
        header = ["attack"] + list(self.defenses)
        rows = [header]
        for attack in self.attacks:
            rows.append([attack] + [self._cell_label(attack, d)
                                    for d in self.defenses])
        return rows

    def summary_markdown(self) -> str:
        """The verdict table as GitHub markdown."""
        rows = self.summary_rows()
        lines = ["| " + " | ".join(rows[0]) + " |",
                 "|" + "---|" * len(rows[0])]
        lines += ["| " + " | ".join(row) + " |" for row in rows[1:]]
        return "\n".join(lines)

    def detail_markdown(self) -> str:
        """Per-cell accuracy / replays / notes as markdown."""
        lines = ["| attack | defense | class | accuracy | chance "
                 "| replays | detected | notes |",
                 "|---|---|---|---|---|---|---|---|"]
        for attack in self.attacks:
            for defense in self.defenses:
                cell = self.cells[(attack, defense)]
                m = cell.metrics
                acc = "—" if m.accuracy is None \
                    else f"{m.accuracy:.2f}"
                notes = "; ".join(m.notes)
                if m.error:
                    notes = f"error: {m.error}" + \
                        (f"; {notes}" if notes else "")
                lines.append(
                    f"| {attack} | {defense} "
                    f"| {cell.classification} | {acc} "
                    f"| {m.chance:.3f} | {m.replays} "
                    f"| {'yes' if m.detected else 'no'} "
                    f"| {notes} |")
        return "\n".join(lines)


def matrix_params(attacks: Sequence[str], defenses: Sequence[str],
                  overrides: Mapping[str, Mapping[str, Any]]
                  ) -> List[Tuple[str, str, Dict[str, Any]]]:
    """The sweep parameter list for a matrix: attacks-outer,
    defenses-inner, one picklable ``(attack, defense, overrides)``
    tuple per cell — the trial order every cell seed derives from."""
    return [(a, d, dict(overrides.get(a, {})))
            for a in attacks for d in defenses]


def build_matrix(attacks: Sequence[str], defenses: Sequence[str],
                 params: Sequence[Tuple[str, str, Any]],
                 results: Sequence[Any], *, master_seed: int,
                 label: str) -> EvaluationMatrix:
    """Classify raw cell payloads into an :class:`EvaluationMatrix`.

    *results* are the sweep outcomes in trial order (``None`` marks a
    cell skipped by the fault policy).  Shared by
    :meth:`MatrixRunner.run` and the job service, so a matrix
    assembled from a service journal is bit-identical to one run
    inline.
    """
    cells: Dict[Tuple[str, str], MatrixCell] = {}
    for index, (param, payload) in enumerate(zip(params, results)):
        # Cell params are (attack, defense, overrides[, oracle_cfg]).
        attack, defense = param[0], param[1]
        if payload is None:
            metrics = CellMetrics(
                error="trial skipped by fault policy",
                chance=get_attack(attack).chance)
        else:
            metrics = CellMetrics.from_dict(payload)
        cells[(attack, defense)] = MatrixCell(
            attack=attack, defense=defense, metrics=metrics,
            seed=derive_seed(master_seed, index, label))
    for (attack, defense), cell in cells.items():
        baseline = cells.get((attack, "none"))
        cell.classification = classify_cell(
            cell.metrics,
            baseline.metrics if baseline is not None
            and defense != "none" else None)
    return EvaluationMatrix(
        master_seed=master_seed, label=label,
        attacks=tuple(attacks), defenses=tuple(defenses), cells=cells)


@dataclass
class MatrixRunner:
    """Configure and execute the matrix sweep.

    With ``service=`` set (a :class:`repro.service.ServiceClient`, an
    ``(host, port)`` address tuple, or a server state directory),
    :meth:`run` does not execute cells in this process at all: it
    submits the matrix as a job to a running experiment service
    (``python -m repro serve``), waits for completion, and rebuilds
    the :class:`EvaluationMatrix` from the service's payload — which
    is bit-identical to a local run because the service executes the
    very same cell trials under the same seed lineage.
    """

    #: Rows/columns to run; empty = every registered one.
    attacks: Sequence[str] = ()
    defenses: Sequence[str] = ()
    #: Per-attack runner overrides, e.g.
    #: ``{"port-contention": {"measurements": 400}}``.
    overrides: Mapping[str, Mapping[str, Any]] = field(
        default_factory=dict)
    master_seed: int = DEFAULT_MASTER_SEED
    label: str = DEFAULT_LABEL
    workers: Optional[int] = None
    policy: Optional[FaultPolicy] = None
    chaos: Optional[ChaosPlan] = None
    #: Journal path (or ``SweepJournal``) for resumable matrices.
    journal: Any = None
    #: Path or :class:`~repro.memo.store.TrialStore`: cells whose
    #: content address (trial fn + params + seed) is already stored
    #: load instead of recomputing.
    store: Any = None
    metrics: Any = None
    tracer: Any = None
    #: A running experiment service to submit through instead of
    #: executing locally: a ``repro.service.ServiceClient``, an
    #: ``(host, port)`` tuple, or a server state directory.
    service: Any = None
    #: Taint-tracking leakage oracle: ``True`` / an
    #: :class:`~repro.oracle.OracleConfig` (or its dict form) runs
    #: every cell under :func:`repro.oracle.activate` and embeds the
    #: leakage summary in each cell's ``detail["oracle"]``;
    #: ``None``/``False`` keeps cells bit-identical to an oracle-free
    #: build.  Not combinable with ``service=`` (the service protocol
    #: does not carry oracle configs yet).
    oracle: Any = None
    #: The :class:`~repro.experiment.ExperimentReport` of the last
    #: :meth:`run` — cache hit/miss accounting lives here, *not* in
    #: the :class:`EvaluationMatrix` (whose serialised form must stay
    #: byte-identical whether or not a cache served it).  ``None``
    #: after a service-routed run (the accounting lives on the
    #: service's status endpoint).
    last_run_report: Any = field(default=None, init=False,
                                 repr=False, compare=False)

    def _axes(self) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        attacks = tuple(self.attacks) or attack_names()
        defenses = tuple(self.defenses) or defense_names()
        for name in attacks:
            get_attack(name)
        for name in defenses:
            get_defense(name)
        return attacks, defenses

    def _run_via_service(self, attacks: Tuple[str, ...],
                         defenses: Tuple[str, ...]) -> EvaluationMatrix:
        """Submit the matrix as a service job and await the payload."""
        from repro.service import JobSpec, ServiceClient
        if isinstance(self.service, ServiceClient):
            client = self.service
        elif isinstance(self.service, tuple):
            client = ServiceClient(address=self.service)
        else:
            client = ServiceClient(state_dir=self.service)
        spec = JobSpec(
            attacks=attacks, defenses=defenses,
            overrides={a: dict(o) for a, o in self.overrides.items()},
            master_seed=self.master_seed, label=self.label,
            workers=self.workers or 1)
        submitted = client.submit(spec)
        status = client.wait(submitted["job"])
        if status["state"] != "done":
            raise RuntimeError(
                f"service job {submitted['job']} ended "
                f"{status['state']!r}: {status.get('error')}")
        self.last_run_report = None
        return EvaluationMatrix.from_dict(client.result(
            submitted["job"]))

    def run(self) -> EvaluationMatrix:
        """Execute every cell and classify against the baselines."""
        from repro.oracle.tracker import _coerce_config
        oracle_config = _coerce_config(self.oracle)
        attacks, defenses = self._axes()
        if self.service is not None:
            if oracle_config is not None:
                raise NotImplementedError(
                    "MatrixRunner(oracle=...) cannot be combined with "
                    "service=: the service job protocol does not "
                    "carry oracle configs yet. Run the oracle matrix "
                    "locally.")
            return self._run_via_service(attacks, defenses)
        params: Sequence[Tuple] = matrix_params(
            attacks, defenses, self.overrides)
        if oracle_config is not None:
            cfg = oracle_config.to_dict()
            params = [(a, d, o, dict(cfg)) for a, d, o in params]
            trial = _cell_trial_oracle
        else:
            trial = _cell_trial
        report = Experiment(
            trial=trial, sweep=params,
            master_seed=self.master_seed, label=self.label,
            workers=self.workers, policy=self.policy,
            chaos=self.chaos, journal=self.journal,
            store=self.store, metrics=self.metrics,
            tracer=self.tracer).run()
        self.last_run_report = report
        matrix = build_matrix(attacks, defenses, params,
                              report.results,
                              master_seed=self.master_seed,
                              label=self.label)
        if oracle_config is not None:
            self._record_oracle(matrix, report)
        return matrix

    def _record_oracle(self, matrix: EvaluationMatrix,
                       report: Any) -> None:
        """Fold per-cell leakage summaries into the observability
        sinks under ``oracle.cell.<attack>.<defense>.*``."""
        metrics = self.metrics if self.metrics is not None \
            else report.metrics
        for (attack, defense), cell in sorted(matrix.cells.items()):
            summary = cell.metrics.detail.get("oracle")
            if not isinstance(summary, dict):
                continue
            prefix = f"oracle.cell.{attack}.{defense}"
            total = summary.get("events", 0)
            metrics.counter(f"{prefix}.events").inc(total)
            for kind, count in summary.get("counts", {}).items():
                metrics.counter(f"{prefix}.{kind}").inc(count)
            if self.tracer is not None and total:
                self.tracer.instant(
                    "oracle.leak", ts=0, cat="oracle",
                    attack=attack, defense=defense, total=total,
                    verdict=summary.get("verdict"))
