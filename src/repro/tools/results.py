"""Generate and drift-check the evaluation results docs.

Runs the full attack × defense matrix (:mod:`repro.evaluation`) plus
the key paper-claim checks — Fig. 10 port-contention separation, AES
key-recovery accuracy, replay counts per handle — from one fixed
master seed, and renders them into:

* ``docs/RESULTS.md`` — the human-readable verdict tables;
* ``docs/results.json`` — the machine-readable payload;
* ``docs/DEFENSES.md`` — per-defense sections (mechanism, knobs,
  paper citation, matrix column excerpt, runnable example);
* the marked block in ``README.md`` — the summary table alone.

Every artifact is a pure function of the committed code and the
master seed (no timestamps, sorted keys, rounded floats), so CI can
regenerate and byte-compare them exactly like
``tests/api/api_surface.json``:

Usage::

    python -m repro.tools.results                 # regenerate docs
    python -m repro.tools.results --check         # diff; exit 1 on drift
    python -m repro.tools.results --workers 4     # same bytes, faster
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.evaluation import (
    DEFAULT_MASTER_SEED,
    EvaluationMatrix,
    MatrixRunner,
)

_ROOT = Path(__file__).resolve().parents[3]

#: The committed artifacts CI diffs against.
RESULTS_MD_PATH = _ROOT / "docs" / "RESULTS.md"
RESULTS_JSON_PATH = _ROOT / "docs" / "results.json"
DEFENSES_MD_PATH = _ROOT / "docs" / "DEFENSES.md"
README_PATH = _ROOT / "README.md"

#: Markers delimiting the generated block inside README.md.
README_BEGIN = "<!-- BEGIN GENERATED: evaluation-matrix -->"
README_END = "<!-- END GENERATED: evaluation-matrix -->"

#: Payload schema version (bump on incompatible shape changes).
RESULTS_VERSION = 1

#: Fixed inputs of the AES key-recovery claim (FIPS-197 test key).
AES_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
AES_PLAINTEXTS = (b"sixteen byte msg", b"another message!")

#: Replay counts exercised by the per-handle replay claim.
REPLAY_COUNTS = (1, 5, 10)


def run_matrix(*, workers: Optional[int] = None,
               attacks: Sequence[str] = (),
               defenses: Sequence[str] = (),
               overrides: Optional[Mapping[str, Mapping]] = None,
               journal: Any = None,
               store: Any = None) -> EvaluationMatrix:
    """Run the (possibly restricted) matrix at the published seed.

    *store* (a path or :class:`~repro.memo.store.TrialStore`) serves
    already-computed cells from the content-addressed cache; the
    rendered artifacts are byte-identical either way.
    """
    return MatrixRunner(
        attacks=attacks, defenses=defenses,
        overrides=dict(overrides or {}),
        master_seed=DEFAULT_MASTER_SEED,
        workers=workers, journal=journal, store=store).run()


# --- paper-claim checks --------------------------------------------------

def check_fig10_separation(matrix: EvaluationMatrix
                           ) -> Dict[str, Any]:
    """Fig. 10: the div side's above-threshold count separates from
    the mul side's, and the attacker calls both panels right."""
    claim = {
        "name": "fig10-port-contention-separation",
        "paper": "Fig. 10 / §6.1",
        "statement": "Port-contention above-threshold counts "
                     "separate the div side from the mul side in a "
                     "single victim run.",
    }
    cell = matrix.cells.get(("port-contention", "none"))
    if cell is None or cell.metrics.accuracy is None:
        claim.update(passed=None,
                     detail={"reason": "port-contention none-cell "
                                       "not in this matrix"})
        return claim
    detail = cell.metrics.detail
    above_mul = detail["0"]["above_threshold"]
    above_div = detail["1"]["above_threshold"]
    claim.update(
        passed=bool(above_div > above_mul
                    and cell.metrics.accuracy == 1.0),
        detail={"above_threshold_mul": above_mul,
                "above_threshold_div": above_div,
                "accuracy": cell.metrics.accuracy})
    return claim


def check_aes_key_recovery() -> Dict[str, Any]:
    """§4.4 / Fig. 11: round-1 attribution recovers key material with
    every recovered nibble correct."""
    from repro.core.attacks.aes_key_recovery import AESKeyRecoveryAttack
    from repro.crypto.aes import encrypt_block
    ciphertexts = [encrypt_block(AES_KEY, p) for p in AES_PLAINTEXTS]
    result = AESKeyRecoveryAttack(AES_KEY).run(ciphertexts)
    return {
        "name": "aes-key-recovery",
        "paper": "§4.4 / Fig. 11",
        "statement": "Single-run AES round-1 attribution recovers "
                     "key nibbles with no wrong guesses.",
        "passed": bool(result.all_correct
                       and result.bytes_recovered == 16),
        "detail": {"blocks": len(ciphertexts),
                   "bytes_recovered": result.bytes_recovered,
                   "bits_recovered": result.bits_recovered,
                   "all_correct": result.all_correct},
    }


def check_replay_counts() -> Dict[str, Any]:
    """§4.1.4: the Replayer delivers exactly the requested number of
    replays per handle before releasing."""
    from repro.core.recipes import replay_n_times
    from repro.core.replayer import AttackEnvironment, Replayer
    from repro.victims.control_flow import setup_control_flow_victim
    observed: Dict[str, int] = {}
    for n in REPLAY_COUNTS:
        rep = Replayer(AttackEnvironment.build())
        victim_proc = rep.create_victim_process()
        victim = setup_control_flow_victim(victim_proc, secret=1)
        recipe = rep.module.provide_replay_handle(
            victim_proc, victim.handle_va + 0x20,
            attack_function=replay_n_times(n))
        rep.launch_victim(victim_proc, victim.program)
        rep.arm(recipe)
        rep.run_until_victim_done(context_id=0, max_cycles=5_000_000)
        observed[str(n)] = recipe.replays
    return {
        "name": "replay-counts-per-handle",
        "paper": "§4.1.4",
        "statement": "Each armed handle replays exactly as many "
                     "times as the attack function requests.",
        "passed": all(observed[str(n)] == n for n in REPLAY_COUNTS),
        "detail": {"requested_vs_observed": observed},
    }


def run_claims(matrix: EvaluationMatrix) -> List[Dict[str, Any]]:
    """All paper-claim checks, in canonical order."""
    return [check_fig10_separation(matrix),
            check_aes_key_recovery(),
            check_replay_counts()]


# --- rendering -----------------------------------------------------------

def build_payload(matrix: EvaluationMatrix,
                  claims: Sequence[Dict[str, Any]]
                  ) -> Dict[str, Any]:
    """The machine-readable results (``docs/results.json``)."""
    return {
        "claims": list(claims),
        "master_seed": matrix.master_seed,
        "matrix": matrix.to_dict(),
        "version": RESULTS_VERSION,
    }


def _claims_markdown(claims: Sequence[Dict[str, Any]]) -> str:
    lines = ["| claim | paper | status | evidence |",
             "|---|---|---|---|"]
    for claim in claims:
        if claim["passed"] is None:
            status = "skipped"
        else:
            status = "pass" if claim["passed"] else "FAIL"
        evidence = ", ".join(f"{k}={v}" for k, v in
                             sorted(claim["detail"].items()))
        lines.append(f"| {claim['name']} | {claim['paper']} "
                     f"| {status} | {evidence} |")
    return "\n".join(lines)


def render_results_md(matrix: EvaluationMatrix,
                      claims: Sequence[Dict[str, Any]]) -> str:
    """The full ``docs/RESULTS.md`` document."""
    return f"""# Results (generated)

<!-- Generated by `python -m repro.tools.results`; do not edit by
     hand.  CI regenerates this file from master seed
     {matrix.master_seed} and fails on any byte of drift. -->

Every cell below is one seed-reproducible experiment: the named
attack run against the named defense configuration through
`repro.evaluation.MatrixRunner` (label `{matrix.label}`, master seed
`{matrix.master_seed}`; cell *i* runs with
`derive_seed({matrix.master_seed}, i, "{matrix.label}")`).  Verdicts
(`defeated` / `degraded` / `unaffected`) come from
`repro.evaluation.classify_cell`: a cell is *defeated* when leak
accuracy falls within ε = 0.1 of blind guessing, *degraded* when it
still leaks but measurably worse than the undefended baseline (or
the defense's detector fired), and *unaffected* otherwise.  See
`docs/DEFENSES.md` for what each column models.

## Attack × defense matrix

{matrix.summary_markdown()}

The reproduction of the paper's §8 argument is visible along two
axes: the victim-transform defenses (`tsgx`, `pf-oblivious`) defeat
the page-granular controlled-channel *baseline* but leave the
MicroScope rows standing, and the budgeted defenses (`dejavu`,
`tsgx`) only bite attacks that need many replay windows — the
few-replay attacks slip underneath, and interrupt-based replay
(§7.1) needs no page faults at all.

## Cell details

{matrix.detail_markdown()}

## Paper-claim checks

{_claims_markdown(claims)}

## Reproducing

```bash
PYTHONPATH=src python -m repro.tools.results            # regenerate
PYTHONPATH=src python -m repro.tools.results --check    # verify
python examples/evaluation_matrix.py                    # small demo
```

The machine-readable form of everything above is
[`docs/results.json`](results.json).
"""


def _defense_section(matrix: EvaluationMatrix, name: str) -> str:
    """One generated ``docs/DEFENSES.md`` section."""
    from repro.evaluation.defenses import get_defense
    spec = get_defense(name)
    parts = [f"## `{name}`", "", spec.summary, "",
             f"*Paper:* {spec.paper_ref}"]
    if spec.mechanism:
        parts += ["", spec.mechanism]
    levers = []
    if spec.machine is not None and spec.machine.defense is not None:
        levers.append(
            "machine mechanism "
            f"`{spec.machine.defense.scheme}` "
            "(installed via `MachineConfig.defense`)")
    if spec.replay_budget is not None:
        levers.append(f"replay budget {spec.replay_budget}")
    if spec.victim_transform:
        levers.append(f"victim transform `{spec.victim_transform}`")
    if spec.detects:
        levers.append("detection (cells over budget are flagged)")
    if levers:
        parts += ["", "*Levers:* " + "; ".join(levers) + "."]
    if spec.knobs:
        parts += ["", "| knob | meaning |", "|---|---|"]
        parts += [f"| `{knob}` | {meaning} |"
                  for knob, meaning in spec.knobs]
    if name in matrix.defenses:
        parts += ["", f"Matrix column (master seed "
                      f"{matrix.master_seed}):", "",
                  "| attack | verdict |", "|---|---|"]
        for attack in matrix.attacks:
            cell = matrix.cells[(attack, name)]
            acc = "—" if cell.metrics.accuracy is None \
                else f"{cell.metrics.accuracy:.2f}"
            parts.append(f"| {attack} "
                         f"| {cell.classification} ({acc}) |")
    for note in spec.notes:
        parts += ["", f"> {note}"]
    if spec.example:
        parts += ["", "```python", spec.example.rstrip("\n"), "```"]
    return "\n".join(parts)


def render_defenses_md(matrix: EvaluationMatrix) -> str:
    """The full generated ``docs/DEFENSES.md`` document."""
    from repro.evaluation.defenses import defense_names
    sections = "\n\n".join(_defense_section(matrix, name)
                           for name in defense_names())
    return f"""# Defenses (generated)

<!-- Generated by `python -m repro.tools.results`; do not edit by
     hand.  CI regenerates this file from master seed
     {matrix.master_seed} and fails on any byte of drift. -->

Every matrix column in [`RESULTS.md`](RESULTS.md) is one
`repro.evaluation.defenses.DefenseSpec`: a §8 countermeasure (or a
follow-on defense from the replay-attack literature) reduced to
mechanism-level levers — a machine configuration, a replay budget, a
victim transform, a detector, or a machine-level
`DefenseMechanism` installed through `MachineConfig.defense` and
attached to the machine as an observer of core stages (`on_squash`,
`on_retire`, `on_issue`, `gate`; see
[`ARCHITECTURE.md`](ARCHITECTURE.md)).
Because every attack runner passes `machine=defense.machine` through
unchanged, a new mechanism reaches all seven attack rows with zero
attack-side code.

The python examples below are executed by
`python -m repro.tools.doccheck` on every CI run.

{sections}

## Reading the matrix

A cell's verdict comes from `repro.evaluation.classify_cell`:

* **defeated** — leak accuracy within ε = 0.1 of blind guessing (or
  the cell errored: an attack that cannot run does not leak);
* **degraded** — still leaking, but measurably below the undefended
  baseline, or the defense's detector fired;
* **unaffected** — accuracy within ε of the baseline and no
  detection.

The baseline for each row is its `none` cell, so the verdicts are
per-attack, not absolute: `pf-oblivious` *defeats* the
controlled-channel baseline yet leaves every MicroScope row
`unaffected` — the paper's §8 argument in one table row.

## Regenerating

```bash
PYTHONPATH=src python -m repro.tools.results            # rewrite
PYTHONPATH=src python -m repro.tools.results --check    # CI drift gate
```
"""


def readme_block(matrix: EvaluationMatrix) -> str:
    """The generated summary block embedded in README.md (markers
    included)."""
    return (f"{README_BEGIN}\n"
            f"{matrix.summary_markdown()}\n\n"
            "*Generated by `python -m repro.tools.results` from "
            f"master seed {matrix.master_seed}; see "
            "[`docs/RESULTS.md`](docs/RESULTS.md) for cell details "
            "and paper-claim checks.*\n"
            f"{README_END}")


def apply_readme_block(readme_text: str, block: str) -> str:
    """Replace the marked block inside *readme_text* with *block*."""
    begin = readme_text.index(README_BEGIN)
    end = readme_text.index(README_END) + len(README_END)
    return readme_text[:begin] + block + readme_text[end:]


def extract_readme_block(readme_text: str) -> str:
    """The current marked block (markers included)."""
    begin = readme_text.index(README_BEGIN)
    end = readme_text.index(README_END) + len(README_END)
    return readme_text[begin:end]


# --- generation + drift check --------------------------------------------

def generate(*, workers: Optional[int] = None, store: Any = None
             ) -> Tuple[EvaluationMatrix, List[Dict[str, Any]],
                        str, str]:
    """Run the full matrix + claims; returns
    ``(matrix, claims, results_md, results_json_text)``."""
    matrix = run_matrix(workers=workers, store=store)
    claims = run_claims(matrix)
    payload = build_payload(matrix, claims)
    results_json = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    results_md = render_results_md(matrix, claims)
    return matrix, claims, results_md, results_json


def main(argv=None) -> int:
    """CLI entry point: write, ``--update`` or ``--check`` the artifacts."""
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="regenerate and diff against the "
                           "committed artifacts; exit 1 on drift")
    mode.add_argument("--update", action="store_true",
                      help="rewrite the artifacts (the default)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for the matrix sweep "
                             "(results are bit-identical for any "
                             "count)")
    parser.add_argument("--cache-dir", default=None,
                        help="content-addressed trial cache for the "
                             "matrix cells (results are "
                             "bit-identical with or without it)")
    args = parser.parse_args(argv)

    matrix, claims, results_md, results_json = generate(
        workers=args.workers, store=args.cache_dir)
    block = readme_block(matrix)
    defenses_md = render_defenses_md(matrix)

    if args.check:
        stale = []
        if not RESULTS_MD_PATH.exists() \
                or RESULTS_MD_PATH.read_text() != results_md:
            stale.append(str(RESULTS_MD_PATH))
        if not RESULTS_JSON_PATH.exists() \
                or RESULTS_JSON_PATH.read_text() != results_json:
            stale.append(str(RESULTS_JSON_PATH))
        if not DEFENSES_MD_PATH.exists() \
                or DEFENSES_MD_PATH.read_text() != defenses_md:
            stale.append(str(DEFENSES_MD_PATH))
        readme = README_PATH.read_text()
        if README_BEGIN not in readme \
                or extract_readme_block(readme) != block:
            stale.append(f"{README_PATH} (generated block)")
        if stale:
            print("results docs drifted from the committed "
                  "artifacts (run `python -m repro.tools.results` "
                  "and commit the diff):", file=sys.stderr)
            for path in stale:
                print(f"  {path}", file=sys.stderr)
            return 1
        print("results docs match the generated artifacts")
        return 0

    RESULTS_MD_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_MD_PATH.write_text(results_md)
    RESULTS_JSON_PATH.write_text(results_json)
    DEFENSES_MD_PATH.write_text(defenses_md)
    readme = README_PATH.read_text()
    README_PATH.write_text(apply_readme_block(readme, block))
    failed = [c["name"] for c in claims if c["passed"] is False]
    print(f"wrote {RESULTS_MD_PATH}")
    print(f"wrote {RESULTS_JSON_PATH}")
    print(f"wrote {DEFENSES_MD_PATH}")
    print(f"updated generated block in {README_PATH}")
    if failed:
        print(f"WARNING: failed claims: {', '.join(failed)}",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
