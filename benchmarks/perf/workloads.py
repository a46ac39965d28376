"""The four perf-ledger workloads.

Each workload is closed-loop with one client in one process: a setup
step that builds its inputs from the seed, a run whose measured parts
it wraps in the child's ``measure()``, and a check of the outputs
outside the measurement.  Everything runs inline (``workers=1``), so
every machine the workload builds is visible to the traced run.

Importing this module imports ``repro``; the child process times that
import as ``process.import_s``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Dict, List, Optional

from repro.config import CoreConfig, MachineConfig
from repro.core.attacks.aes_key_recovery import AESKeyRecoveryAttack
from repro.core.attacks.port_contention import (
    PortContentionAttack,
    run_figure10,
)
from repro.crypto.aes import encrypt_block
from repro.evaluation import MatrixRunner
from repro.evaluation.matrix import DEFAULT_MASTER_SEED
from repro.harness import collect_sweep_reports
from repro.memo.store import TrialStore

#: What ``python -m repro matrix --samples 200`` passes to the
#: port-contention row.  200 is the floor: at 150 samples the
#: undefended cell drops to accuracy 0.5.
PORT_OVERRIDES = {"measurements": 200, "calibrate_samples": 200}
#: Rows whose two secrets are a seed-drawn order of (0, 1).
BIT_ROWS = ("cf-cache", "interrupt-replay", "mispredict",
            "controlled-channel")
GRID_CELLS = 77
WARM_PASSES = 1000
AES_BLOCKS = 16
FIG10_MEASUREMENTS = 1000


def digest(payload: Any) -> str:
    """SHA-256 of the canonical JSON form of *payload*."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def matrix_overrides(seed: int) -> Dict[str, Dict[str, Any]]:
    """Per-row overrides of the 7x11 grid for *seed*.

    The seed orders the secrets of the four bit rows and draws the two
    secret-id indices from the attack's 256-entry table.
    loop-secret and port-contention keep their published secrets: a
    random loop-secret draw is not always fully recoverable.  The
    master seed stays at the published 2019 -- cell trials ignore their
    seed, so varying it would change store keys but no simulated work.
    """
    rng = random.Random(seed)
    overrides: Dict[str, Dict[str, Any]] = {
        "port-contention": dict(PORT_OVERRIDES)}
    for row in BIT_ROWS:
        overrides[row] = {"secrets": rng.sample((0, 1), 2)}
    overrides["secret-id"] = {"secret_ids": rng.sample(range(256), 2)}
    return overrides


def matrix_runner(seed: int, store: str) -> MatrixRunner:
    return MatrixRunner(overrides=matrix_overrides(seed),
                        master_seed=DEFAULT_MASTER_SEED, workers=1,
                        store=TrialStore(store))


#: ``measure()`` is a context manager the child passes in: each block
#: it wraps is a measured interval (a root frame of the traced run).
Measure = Callable[[], ContextManager[None]]


@dataclass
class Outcome:
    """What one run produced, after its output check."""

    #: Checked operations (cells, passes, ciphertexts, panels).
    attempted: int
    #: Digest of the run's outputs; must repeat for a repeated seed.
    digest: str
    failures: List[str] = field(default_factory=list)


def _sweep_trials(sweeps: List[Any], label: str) -> List[Any]:
    """Trial reports of the sweeps named *label*, in order."""
    return [trial for report in sweeps if report.label == label
            for trial in report.trials]


def _trial_failures(trials: List[Any], what: str) -> List[str]:
    return [f"{what} {trial.index} resolved {trial.resolution}"
            for trial in trials if trial.resolution not in ("ok", "cached")]


# --- matrix-cold ------------------------------------------------------------


def run_matrix_cold(runner: MatrixRunner, measure: Measure) -> Any:
    with collect_sweep_reports() as sweeps, measure():
        matrix = runner.run()
    return matrix, sweeps


def check_matrix_cold(runner: MatrixRunner, output: Any,
                      intervals: List[float]) -> Outcome:
    matrix, sweeps = output
    trials = _sweep_trials(sweeps, runner.label)
    failures = _trial_failures(trials, "cell")
    if len(trials) != GRID_CELLS:
        failures.append(f"{len(trials)} cells ran, expected {GRID_CELLS}")
    for attack in matrix.attacks:
        accuracy = matrix.cell(attack, "none").metrics.accuracy
        if accuracy != 1.0:
            failures.append(f"{attack}/none accuracy {accuracy}")
    cache = runner.last_run_report.cache
    if cache.get("hits") or cache.get("stores") != GRID_CELLS:
        failures.append(f"store not fresh or not written: {cache}")
    return Outcome(attempted=len(trials), digest=digest(matrix.to_dict()),
                   failures=failures)


# --- matrix-warm ------------------------------------------------------------


def populate(seed: int, store: str) -> str:
    """Fill *store* with every cell of the seed's grid that it lacks
    (matrix-warm's untimed preparation); returns the grid's digest."""
    return digest(matrix_runner(seed, store).run().to_dict())


def run_matrix_warm(runner: MatrixRunner, measure: Measure) -> Any:
    """Back-to-back passes over the populated store.  Each pass is one
    measured interval; its output check runs between passes, outside
    the measurement."""
    digests = set()
    failures: List[str] = []
    for index in range(WARM_PASSES):
        with measure():
            matrix = runner.run()
        digests.add(digest(matrix.to_dict()))
        cache = runner.last_run_report.cache
        if cache.get("hits") != GRID_CELLS or cache.get("misses"):
            failures.append(f"pass {index}: {cache.get('hits')} hits, "
                            f"{cache.get('misses')} misses")
    if len(digests) != 1:
        failures.append(f"{len(digests)} distinct pass outputs")
    return min(digests), failures


def check_matrix_warm(runner: MatrixRunner, output: Any,
                      intervals: List[float]) -> Outcome:
    pass_digest, failures = output
    return Outcome(attempted=len(intervals), digest=pass_digest,
                   failures=failures)


# --- aes-key-recovery -------------------------------------------------------


@dataclass
class AESInputs:
    attack: AESKeyRecoveryAttack
    ciphertexts: List[bytes]


def setup_aes(seed: int, store: Optional[str]) -> AESInputs:
    rng = random.Random(seed)
    key = bytes(rng.randrange(256) for _ in range(16))
    plaintexts = [bytes(rng.randrange(256) for _ in range(16))
                  for _ in range(AES_BLOCKS)]
    return AESInputs(AESKeyRecoveryAttack(key),
                     [encrypt_block(key, p) for p in plaintexts])


def run_aes(inputs: AESInputs, measure: Measure) -> Any:
    with collect_sweep_reports() as sweeps, measure():
        result = inputs.attack.run(inputs.ciphertexts)
    return result, sweeps


def check_aes(inputs: AESInputs, output: Any,
              intervals: List[float]) -> Outcome:
    result, sweeps = output
    trials = _sweep_trials(sweeps, "aes-key-recovery")
    failures = _trial_failures(trials, "ciphertext")
    if not result.all_correct:
        failures.append("recovered nibbles disagree with the key")
    if result.bytes_recovered != 16:
        failures.append(f"{result.bytes_recovered}/16 bytes recovered")
    return Outcome(
        attempted=len(trials),
        digest=digest({"recovered": sorted(result.recovered.items()),
                       "candidates": sorted(
                           (i, sorted(s))
                           for i, s in result.nibble_sets.items())}),
        failures=failures)


# --- fig10-port-contention --------------------------------------------------


def setup_fig10(seed: int, store: Optional[str]) -> PortContentionAttack:
    return PortContentionAttack(
        measurements=FIG10_MEASUREMENTS,
        machine=MachineConfig(core=CoreConfig(rdtsc_jitter_seed=seed)))


def run_fig10(attack: PortContentionAttack, measure: Measure) -> Any:
    with collect_sweep_reports() as sweeps, measure():
        panels = run_figure10(attack=attack)
    return panels, sweeps


def check_fig10(attack: PortContentionAttack, output: Any,
                intervals: List[float]) -> Outcome:
    panels, sweeps = output
    trials = _sweep_trials(sweeps, "fig10")
    failures = _trial_failures(trials, "panel")
    for name, panel in panels.items():
        if not panel.correct:
            failures.append(f"{name} panel verdict {panel.verdict} is wrong")
    if not panels["div"].above_threshold > panels["mul"].above_threshold:
        failures.append("div does not cross the threshold more than mul")
    return Outcome(
        attempted=len(trials),
        digest=digest({name: {"samples": digest(p.samples),
                              "threshold": p.threshold,
                              "above": p.above_threshold,
                              "replays": p.replays, "verdict": p.verdict,
                              "cycles": p.cycles}
                       for name, p in panels.items()}),
        failures=failures)


@dataclass(frozen=True)
class Workload:
    """Set up from (seed, trial store directory or ``None``), run with
    the child's ``measure``, check with the measured intervals.

    ``simulates``: the operation timed for ``op_ms_*`` is a stretch of
    simulated cycles, sampled by the child while the workload runs;
    otherwise it is each measured interval (a matrix-warm pass)."""

    name: str
    setup: Callable[[int, Optional[str]], Any]
    run: Callable[[Any, Measure], Any]
    check: Callable[[Any, Any, List[float]], Outcome]
    simulates: bool = True


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("matrix-cold", matrix_runner, run_matrix_cold,
             check_matrix_cold),
    Workload("matrix-warm", matrix_runner, run_matrix_warm,
             check_matrix_warm, simulates=False),
    Workload("aes-key-recovery", setup_aes, run_aes, check_aes),
    Workload("fig10-port-contention", setup_fig10, run_fig10, check_fig10),
)}
