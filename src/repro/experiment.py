"""The top-level experiment facade.

One builder covers the whole pipeline that experiment scripts used to
assemble by hand from six modules — machine construction, warm-start
snapshots, (resilient) sweeps, and reporting::

    import repro

    # Single attack run:
    result = repro.Experiment(
        attack=repro.PortContentionAttack(measurements=1500),
        victim={"secret": 1},
    ).run().result

    # A fault-tolerant parameter sweep:
    report = repro.Experiment(
        attack=repro.PortContentionAttack(),
        sweep=[{"secret": s} for s in (0, 1)],
        workers=2,
        policy=repro.FaultPolicy(timeout=300.0, max_attempts=3),
        journal="fig10.journal",
    ).run()
    mul, div = report.results

An :class:`Experiment` is declarative and reusable: ``run()`` does
not mutate it, so the same instance can be run repeatedly (e.g. to
resume an interrupted sweep from its journal).

Two ways to say what a trial does, mutually exclusive:

``attack=``
    any object with a ``run`` method (all classes in
    :mod:`repro.core.attacks` qualify).  Each trial calls
    ``attack.run(**victim, **sweep_item)``; sweep items must be dicts.
``trial=``
    a bare ``fn(params, seed)`` callable (the harness trial contract);
    sweep items are passed through verbatim and ``victim`` must be
    unset.  Use this for custom drivers that want the derived seed.

Everything below the facade stays public — :meth:`environment` hands
back the same :class:`~repro.core.replayer.Replayer` an attack driver
would build, positioned on a warm-start snapshot when asked, so
dropping one abstraction level never means rewriting the setup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.config import MachineConfig, to_dict
from repro.harness.chaos import ChaosPlan
from repro.harness.resilience import (
    FaultPolicy,
    SweepReport,
    run_resilient_sweep,
)
from repro.observability.registry import MetricsRegistry
from repro.observability.tracer import EventTracer


@dataclass
class ExperimentReport:
    """What :meth:`Experiment.run` returns: results + accounting."""

    label: str
    #: Merged trial results in sweep order (length 1 for single runs).
    results: List[Any]
    #: Per-trial attempt/outcome accounting from the resilient runner.
    report: Optional[SweepReport]
    #: The registry the sweep accounting was recorded into.
    metrics: Optional[MetricsRegistry] = None
    #: Per-trial leakage summaries (``LeakageSummary.to_dict`` shape,
    #: ``None`` for skipped trials) when the experiment ran with
    #: ``oracle=``; ``None`` when the oracle was off.
    oracle: Optional[List[Optional[Dict[str, Any]]]] = None

    @property
    def result(self) -> Any:
        """The sole result of a non-sweep experiment."""
        if len(self.results) != 1:
            raise ValueError(
                f"experiment {self.label!r} has {len(self.results)} "
                "results; use .results")
        return self.results[0]

    @property
    def wall_seconds(self) -> float:
        """Host seconds the sweep took (0.0 when nothing ran)."""
        return self.report.wall_seconds if self.report else 0.0

    @property
    def cache(self) -> Dict[str, int]:
        """Trial-store counter deltas (hits, misses, stores…) for
        this run; empty when no store was attached."""
        if self.report is None or self.report.cache is None:
            return {}
        return dict(self.report.cache)

    @property
    def cached_trials(self) -> int:
        """How many trials were served from the content-addressed
        store instead of running."""
        if self.report is None:
            return 0
        return self.report.resolution_counts().get("cached", 0)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (results themselves are *not* included;
        they are arbitrary objects)."""
        return {
            "label": self.label,
            "trials": len(self.results),
            "wall_seconds": self.wall_seconds,
            "sweep": self.report.to_dict() if self.report else None,
        }


def _attack_trial(params: Any, seed: int) -> Any:
    """Module-level trial adapter so sweeps over attacks pickle."""
    attack, kwargs = params
    return attack.run(**kwargs)


@dataclass(frozen=True)
class _OracleTrial:
    """Oracle-activating wrapper around a trial function.

    A frozen dataclass (not a closure) so worker pools can pickle it
    and the memo layer can key it: its content address covers both
    the wrapped function and the oracle configuration, so oracle-on
    and oracle-off runs of the same trial never share a cache entry.
    """

    inner: Callable[[Any, int], Any]
    config: Any  # OracleConfig; typed loosely to keep imports lazy

    def __call__(self, params: Any, seed: int) -> Dict[str, Any]:
        """Run the trial under an active oracle; box the result with
        the leakage summary (unboxed again in :meth:`Experiment.run`)."""
        from repro.oracle import TaintOracle, activate
        oracle = TaintOracle(self.config)
        with activate(oracle):
            result = self.inner(params, seed)
        return {"__oracle__": oracle.summary.to_dict(),
                "result": result}


@dataclass
class Experiment:
    """Declarative experiment: what to run, how hard to try."""

    #: Attack object (``attack.run(**victim, **sweep_item)`` per trial).
    attack: Any = None
    #: Raw ``fn(params, seed)`` trial (exclusive with ``attack``).
    trial: Optional[Callable[[Any, int], Any]] = None
    #: Keyword arguments shared by every trial's ``attack.run`` call.
    victim: Mapping[str, Any] = field(default_factory=dict)
    #: Per-trial parameters; ``None`` means one single run.
    sweep: Optional[Sequence[Any]] = None

    # --- platform construction (for environment(); attacks that build
    # their own machines ignore these) -----------------------------------
    machine: Optional[MachineConfig] = None
    kernel: Any = None
    module: Any = None

    # --- execution -------------------------------------------------------
    workers: Optional[int] = None
    master_seed: int = 0
    label: str = ""
    policy: Optional[FaultPolicy] = None
    chaos: Optional[ChaosPlan] = None
    #: Path or :class:`~repro.harness.journal.SweepJournal` for resume.
    journal: Any = None
    #: Path or :class:`~repro.memo.store.TrialStore`: the persistent
    #: content-addressed trial cache (see :mod:`repro.memo`).
    store: Any = None
    #: Taint-tracking leakage oracle: ``True`` / an
    #: :class:`~repro.oracle.OracleConfig` (or its dict form) runs
    #: every trial under :func:`repro.oracle.activate` and fills
    #: :attr:`ExperimentReport.oracle`; ``None``/``False`` leaves the
    #: run bit-identical to an oracle-free build.
    oracle: Any = None

    # --- observability ---------------------------------------------------
    metrics: Optional[MetricsRegistry] = None
    tracer: Optional[EventTracer] = None

    def __post_init__(self):
        if self.attack is not None and self.trial is not None:
            raise ValueError("pass either attack= or trial=, not both")
        if self.attack is None and self.trial is None:
            raise ValueError("an Experiment needs attack= or trial=")
        if self.trial is not None and self.victim:
            raise ValueError("victim= only applies to attack=; fold "
                             "shared parameters into the sweep items")
        if self.attack is not None and not hasattr(self.attack, "run"):
            raise TypeError(
                f"attack object {self.attack!r} has no run() method")

    # --- platform access --------------------------------------------------

    def _config_key(self) -> str:
        parts = []
        for config in (self.machine, self.kernel, self.module):
            parts.append("None" if config is None
                         else repr(sorted(to_dict(config).items())))
        return "|".join(parts)

    def environment(self, *, warm: bool = False):
        """Build the wired platform as a
        :class:`~repro.core.replayer.Replayer`.

        With ``warm=True`` the underlying environment comes from the
        process-wide :func:`repro.snapshot.warm_start` cache, keyed on
        this experiment's configs: repeated calls rewind to one
        post-build snapshot instead of reconstructing the platform.
        """
        from repro.core.replayer import AttackEnvironment, Replayer
        if warm:
            from repro.snapshot import warm_start
            env, _ = warm_start(
                ("experiment", self._config_key()),
                lambda: (AttackEnvironment.build(
                    machine_config=self.machine,
                    kernel_config=self.kernel,
                    module_config=self.module), None))
            return Replayer(env)
        return Replayer(AttackEnvironment.build(
            machine_config=self.machine, kernel_config=self.kernel,
            module_config=self.module))

    # --- execution ---------------------------------------------------------

    def _trial_spec(self):
        """Resolve (trial_fn, params list) from the declaration."""
        if self.trial is not None:
            params = list(self.sweep) if self.sweep is not None \
                else [None]
            return self.trial, params
        shared = dict(self.victim)
        if self.sweep is None:
            items: List[Mapping[str, Any]] = [{}]
        else:
            items = []
            for item in self.sweep:
                if not isinstance(item, Mapping):
                    raise TypeError(
                        "sweep items must be dicts of attack.run() "
                        f"keyword arguments, got {item!r}")
                items.append(item)
        return _attack_trial, [(self.attack, {**shared, **item})
                               for item in items]

    def run(self) -> ExperimentReport:
        """Execute and return an :class:`ExperimentReport`."""
        from repro.oracle.tracker import _coerce_config
        oracle_config = _coerce_config(self.oracle)
        trial_fn, params = self._trial_spec()
        if oracle_config is not None:
            trial_fn = _OracleTrial(inner=trial_fn,
                                    config=oracle_config)
        metrics = self.metrics if self.metrics is not None \
            else MetricsRegistry()
        workers = self.workers if self.workers is not None else 1
        sweep = run_resilient_sweep(
            trial_fn, params,
            master_seed=self.master_seed, workers=workers,
            label=self.label, policy=self.policy, chaos=self.chaos,
            journal=self.journal, store=self.store, metrics=metrics,
            tracer=self.tracer)
        results = sweep.results()
        summaries: Optional[List[Optional[Dict[str, Any]]]] = None
        if oracle_config is not None:
            summaries = [None if boxed is None
                         else boxed.get("__oracle__")
                         for boxed in results]
            results = [None if boxed is None else boxed.get("result")
                       for boxed in results]
            self._record_oracle(summaries, metrics)
        return ExperimentReport(label=self.label, results=results,
                                report=sweep.report, metrics=metrics,
                                oracle=summaries)

    def _record_oracle(self,
                       summaries: List[Optional[Dict[str, Any]]],
                       metrics: MetricsRegistry) -> None:
        """Fold per-trial leakage summaries into the observability
        sinks: ``oracle.*`` counters plus one tracer instant per
        leaking trial."""
        for index, summary in enumerate(summaries):
            if summary is None:
                continue
            metrics.counter("oracle.trials").inc()
            total = summary.get("events", 0)
            metrics.counter("oracle.events").inc(total)
            for kind, count in summary.get("counts", {}).items():
                metrics.counter(f"oracle.events.{kind}").inc(count)
            if summary.get("verdict") == "leaks":
                metrics.counter("oracle.leaking_trials").inc()
            if self.tracer is not None and total:
                self.tracer.instant(
                    "oracle.leak", ts=0, cat="oracle", tid=index,
                    total=total, verdict=summary.get("verdict"))


__all__ = ["Experiment", "ExperimentReport"]
