"""The attack rows of the matrix, adapted to a common contract.

Every registered attack is wrapped in a module-level *runner*
``fn(defense, overrides) -> CellMetrics`` that (1) instantiates the
attack with the defense's mechanism knobs (machine config, replay
budget, victim transform), (2) runs it over a small fixed set of
ground-truth secrets, and (3) reduces the outcomes to leak accuracy,
replay counts and per-trial diagnostics.  Runners are looked up by
name inside the sweep trial, so matrix trial parameters stay plain
picklable strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Sequence, Tuple

from repro.evaluation.classify import CellMetrics
from repro.evaluation.defenses import DefenseSpec

Runner = Callable[[DefenseSpec, Mapping[str, Any]], CellMetrics]


def _accuracy(outcomes: Sequence[bool]) -> float:
    return sum(1 for ok in outcomes if ok) / len(outcomes)


def _tsgx_wrapper(program, process):
    """Victim transform for the ``tsgx`` column (module-level so the
    attack object stays picklable)."""
    from repro.evaluation.defenses.tsgx import wrap_with_tsgx
    return wrap_with_tsgx(program, process)


def run_cf_cache(defense: DefenseSpec,
                 overrides: Mapping[str, Any]) -> CellMetrics:
    """Cache-line control-flow attack (§4.2.3, Fig. 4c)."""
    from repro.core.attacks.control_flow import ControlFlowCacheAttack
    secrets = tuple(overrides.get("secrets", (0, 1)))
    attack = ControlFlowCacheAttack(
        replays=overrides.get("replays", 5),
        machine=defense.machine,
        replay_budget=defense.replay_budget)
    results = [attack.run(s) for s in secrets]
    replays = max(r.replays for r in results)
    return CellMetrics(
        accuracy=_accuracy([r.correct for r in results]),
        chance=0.5, trials=len(results), replays=replays,
        detected=defense.detected(replays),
        detail={str(s): {"guessed": r.guessed, "hitsB": r.hitsB,
                         "hitsC": r.hitsC, "replays": r.replays}
                for s, r in zip(secrets, results)})


def run_secret_id(defense: DefenseSpec,
                  overrides: Mapping[str, Any]) -> CellMetrics:
    """Secret-id extraction on the Fig. 5 victim (§4.2.1)."""
    from repro.core.attacks.single_secret import SecretIdExtractionAttack
    secret_ids = tuple(overrides.get("secret_ids", (5, 37)))
    attack = SecretIdExtractionAttack(
        replays=overrides.get("replays", 3),
        machine=defense.machine,
        replay_budget=defense.replay_budget)
    results = [attack.run(sid) for sid in secret_ids]
    replays = max(r.replays for r in results)
    lines = (attack.num_secrets * 8) // 64
    return CellMetrics(
        accuracy=_accuracy([r.correct for r in results]),
        chance=1.0 / lines, trials=len(results), replays=replays,
        detected=defense.detected(replays),
        detail={str(sid): {"extracted_line": r.extracted_line,
                           "true_line": r.true_line,
                           "replays": r.replays}
                for sid, r in zip(secret_ids, results)})


def run_loop_secret(defense: DefenseSpec,
                    overrides: Mapping[str, Any]) -> CellMetrics:
    """Loop-secret extraction with window tuning + pivot (§4.2.2)."""
    from repro.core.attacks.loop_secret import LoopSecretAttack
    secrets = list(overrides.get("secrets", (3, 7, 1, 12)))
    attack = LoopSecretAttack(
        machine=defense.machine,
        replay_budget=defense.replay_budget)
    result = attack.run(secrets)
    return CellMetrics(
        accuracy=result.accuracy,
        chance=1.0 / attack.table_lines,
        trials=len(secrets), replays=result.replays,
        detected=defense.detected(result.replays),
        detail={"extracted": result.extracted,
                "truth": result.truth,
                "replays": result.replays})


def run_interrupt_replay(defense: DefenseSpec,
                         overrides: Mapping[str, Any]) -> CellMetrics:
    """Timer interrupts as replay handles (§7.1) — no page-table
    manipulation, so page-fault-centric defenses miss it."""
    from repro.core.attacks.interrupt_replay import InterruptReplayAttack
    secrets = tuple(overrides.get("secrets", (0, 1)))
    attack = InterruptReplayAttack(
        replays=overrides.get("replays", 8),
        machine=defense.machine,
        replay_budget=defense.replay_budget)
    results = [attack.run(secret=s) for s in secrets]
    replays = max(r.interrupts_delivered for r in results)
    notes: Tuple[str, ...] = ()
    if defense.victim_transform or defense.detects:
        notes = ("interrupt handles bypass page-fault defenses "
                 "(§7.1); budget applied to interrupts delivered",)
    return CellMetrics(
        accuracy=_accuracy([r.correct for r in results]),
        chance=0.5, trials=len(results), replays=replays,
        detected=defense.detected(replays),
        notes=notes,
        detail={str(s): {"guessed": r.guessed,
                         "mul": r.mul_executions,
                         "div": r.div_executions,
                         "interrupts": r.interrupts_delivered}
                for s, r in zip(secrets, results)})


def run_mispredict(defense: DefenseSpec,
                   overrides: Mapping[str, Any]) -> CellMetrics:
    """Primed-misprediction inference (§4.2.3 / §7.1): intrinsically
    bounded replays, so budgets never bind."""
    from repro.core.attacks.mispredict_replay import infer_secret_by_priming
    secrets = tuple(overrides.get("secrets", (0, 1)))
    outcomes = [infer_secret_by_priming(s, machine=defense.machine)
                for s in secrets]
    replays = max(o["result"].replayed_instructions
                  for o in outcomes)
    return CellMetrics(
        accuracy=_accuracy([o["correct"] for o in outcomes]),
        chance=0.5, trials=len(outcomes), replays=replays,
        detected=defense.detected(replays),
        detail={str(s): {"guessed": o["guessed_secret"],
                         "mispredicted":
                             o["misprediction_observed"]}
                for s, o in zip(secrets, outcomes)})


def run_port_contention(defense: DefenseSpec,
                        overrides: Mapping[str, Any]) -> CellMetrics:
    """The Fig. 10 port-contention attack (§4.3 / §6.1)."""
    from repro.core.attacks.port_contention import PortContentionAttack
    secrets = tuple(overrides.get("secrets", (0, 1)))
    attack = PortContentionAttack(
        measurements=overrides.get("measurements", 800),
        machine=defense.machine,
        replay_budget=defense.replay_budget)
    threshold = attack.calibrate(
        samples=overrides.get("calibrate_samples", 600))
    results = [attack.run(s, threshold=threshold) for s in secrets]
    replays = max(r.replays for r in results)
    return CellMetrics(
        accuracy=_accuracy([r.correct for r in results]),
        chance=0.5, trials=len(results), replays=replays,
        detected=defense.detected(replays),
        detail={str(s): {"verdict": r.verdict,
                         "above_threshold": r.above_threshold,
                         "samples": len(r.samples),
                         "threshold": r.threshold,
                         "replays": r.replays}
                for s, r in zip(secrets, results)})


def run_controlled_channel(defense: DefenseSpec,
                           overrides: Mapping[str, Any]
                           ) -> CellMetrics:
    """The Table-1 controlled-channel baseline (Xu et al. [60]) —
    the row where victim-transform defenses actually bite, which is
    the paper's §8 contrast with MicroScope."""
    from repro.baselines.controlled_channel import ControlledChannelAttack
    secrets = tuple(overrides.get("secrets", (0, 1)))
    attack = ControlledChannelAttack(
        machine=defense.machine,
        oblivious=defense.victim_transform == "oblivious",
        victim_wrapper=_tsgx_wrapper
        if defense.victim_transform == "tsgx" else None)
    results = [attack.run(s) for s in secrets]
    faults = max(len(r.fault_vpns) for r in results)
    return CellMetrics(
        accuracy=_accuracy([r.correct for r in results]),
        chance=0.5, trials=len(results), replays=0,
        detected=defense.detected(faults),
        notes=("page-granular OS channel, no replay machinery; "
               "fault count stands in for the detection load",),
        detail={str(s): {"guessed": r.guessed,
                         "faults": len(r.fault_vpns)}
                for s, r in zip(secrets, results)})


@dataclass(frozen=True)
class AttackSpec:
    """One matrix row: a registered attack plus its prior."""

    name: str
    #: One-line description for the generated docs.
    summary: str
    #: Where the paper describes it.
    paper_ref: str
    #: Probability of a blind guess being right (the accuracy floor).
    chance: float
    #: ``fn(defense, overrides) -> CellMetrics``; module-level.
    runner: Runner


#: Registry of every attack row, in canonical matrix order.
ATTACKS: Dict[str, AttackSpec] = {spec.name: spec for spec in (
    AttackSpec("cf-cache",
               "Cache-line control-flow secret (Prime+Probe in the "
               "replay window)", "§4.2.3, Fig. 4c", 0.5,
               run_cf_cache),
    AttackSpec("secret-id",
               "Secret table index at cache-line granularity",
               "§4.2.1, Fig. 5", 1.0 / 16, run_secret_id),
    AttackSpec("loop-secret",
               "Per-iteration loop secrets via window tuning and the "
               "pivot", "§4.2.2, Fig. 4b", 1.0 / 16,
               run_loop_secret),
    AttackSpec("interrupt-replay",
               "Timer interrupts as replay handles (no page-table "
               "writes)", "§7.1", 0.5, run_interrupt_replay),
    AttackSpec("mispredict",
               "Primed branch misprediction as a bounded replay "
               "handle", "§4.2.3 / §7.1", 0.5, run_mispredict),
    AttackSpec("port-contention",
               "SMT divider contention in the replay shadow "
               "(Fig. 10)", "§4.3 / §6.1", 0.5,
               run_port_contention),
    AttackSpec("controlled-channel",
               "Controlled-channel baseline: the OS logs the page-"
               "fault sequence", "Table 1, Xu et al. [60]", 0.5,
               run_controlled_channel),
)}


#: The module each row's runner imports its attack from, on its first
#: call.  A pool sweep imports them in the parent
#: (:func:`repro.evaluation.matrix.import_cell_modules`), so forked
#: workers inherit them instead of importing them on every attempt.
RUNNER_MODULES: Dict[str, str] = {
    "cf-cache": "repro.core.attacks.control_flow",
    "secret-id": "repro.core.attacks.single_secret",
    "loop-secret": "repro.core.attacks.loop_secret",
    "interrupt-replay": "repro.core.attacks.interrupt_replay",
    "mispredict": "repro.core.attacks.mispredict_replay",
    "port-contention": "repro.core.attacks.port_contention",
    "controlled-channel": "repro.baselines.controlled_channel",
}


def attack_names() -> Tuple[str, ...]:
    """Canonical row order of the full matrix."""
    return tuple(ATTACKS)


def get_attack(name: str) -> AttackSpec:
    """Look up a registered attack; raises ``KeyError`` with the
    valid names otherwise."""
    try:
        return ATTACKS[name]
    except KeyError:
        raise KeyError(f"unknown attack {name!r}; registered: "
                       f"{', '.join(ATTACKS)}") from None
