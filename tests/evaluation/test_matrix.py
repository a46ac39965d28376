"""The matrix runner: baselines, seeds, determinism across worker
counts, journal resume, and defenses that crash the attack."""

import pytest

from repro.evaluation import (
    AttackSpec,
    CellMetrics,
    EvaluationMatrix,
    MatrixRunner,
)
from repro.evaluation.attacks import ATTACKS
from repro.evaluation.matrix import DEFAULT_LABEL, DEFAULT_MASTER_SEED
from repro.harness import derive_seed


@pytest.fixture(scope="module")
def small_matrix():
    runner = MatrixRunner(attacks=("cf-cache",),
                          defenses=("none", "fences"))
    return runner.run()


def test_small_matrix_classifications(small_matrix):
    baseline = small_matrix.cell("cf-cache", "none")
    assert baseline.classification == "unaffected"
    assert baseline.metrics.accuracy == 1.0
    assert baseline.metrics.error is None
    fenced = small_matrix.cell("cf-cache", "fences")
    assert fenced.classification == "defeated"


def test_cell_seeds_follow_the_sweep_lineage(small_matrix):
    # params are attacks-outer, defenses-inner: index 0 = none, 1 = fences
    for index, defense in enumerate(("none", "fences")):
        cell = small_matrix.cell("cf-cache", defense)
        assert cell.seed == derive_seed(DEFAULT_MASTER_SEED, index,
                                        DEFAULT_LABEL)


def test_build_matrix_reuses_the_seeds_the_sweep_derived():
    """``build_matrix`` names each cell's seed without hashing it again
    (``derive_seed`` is memoised), and the seed is the lineage's."""
    from repro.evaluation.matrix import build_matrix, matrix_params
    params = matrix_params(("cf-cache",), ("none", "fences"), {})
    seeds = [derive_seed(11, index, "reuse") for index in range(2)]
    before = derive_seed.cache_info()
    matrix = build_matrix(("cf-cache",), ("none", "fences"), params,
                          [None, None], master_seed=11, label="reuse")
    assert derive_seed.cache_info().misses == before.misses
    assert [matrix.cell("cf-cache", d).seed
            for d in ("none", "fences")] == seeds


def test_to_dict_round_trip(small_matrix):
    payload = small_matrix.to_dict()
    assert payload == small_matrix.to_dict()
    rebuilt = EvaluationMatrix.from_dict(payload)
    assert rebuilt.to_dict() == payload
    assert rebuilt.attacks == small_matrix.attacks
    assert rebuilt.cell("cf-cache", "fences").classification \
        == "defeated"


def test_rendering_mentions_every_cell(small_matrix):
    summary = small_matrix.summary_markdown()
    assert "| cf-cache |" in summary
    assert "leaks (1.00)" in summary and "defeated" in summary
    detail = small_matrix.detail_markdown()
    assert detail.count("| cf-cache |") == 2


def test_worker_counts_do_not_change_the_matrix(small_matrix):
    parallel = MatrixRunner(attacks=("cf-cache",),
                            defenses=("none", "fences"),
                            workers=2).run()
    assert parallel.to_dict() == small_matrix.to_dict()


def test_journal_resume_reruns_no_cells(tmp_path, small_matrix,
                                        monkeypatch):
    journal = tmp_path / "matrix.journal"
    first = MatrixRunner(attacks=("cf-cache",),
                         defenses=("none", "fences"),
                         journal=str(journal)).run()
    assert first.to_dict() == small_matrix.to_dict()

    # poison the registry: if the resumed run re-executed any cell it
    # would record an error instead of the journalled metrics
    def explode(defense, overrides):
        raise AssertionError("cell was re-run despite the journal")

    spec = ATTACKS["cf-cache"]
    monkeypatch.setitem(
        ATTACKS, "cf-cache",
        AttackSpec(spec.name, spec.summary, spec.paper_ref,
                   spec.chance, explode))
    resumed = MatrixRunner(attacks=("cf-cache",),
                           defenses=("none", "fences"),
                           journal=str(journal)).run()
    assert resumed.to_dict() == first.to_dict()


def test_attack_exception_becomes_defeated_cell(monkeypatch):
    def broken(defense, overrides):
        raise RuntimeError("defense terminated the victim")

    monkeypatch.setitem(
        ATTACKS, "broken",
        AttackSpec("broken", "always raises", "test", 0.5, broken))
    matrix = MatrixRunner(attacks=("broken",),
                          defenses=("none",)).run()
    cell = matrix.cell("broken", "none")
    assert cell.classification == "defeated"
    assert cell.metrics.accuracy is None
    assert "RuntimeError: defense terminated the victim" \
        == cell.metrics.error


def test_partial_result_classifies_degraded(monkeypatch):
    def leaky(defense, overrides):
        if defense.name == "none":
            return CellMetrics(accuracy=1.0, chance=0.5, trials=4)
        return CellMetrics(accuracy=0.75, chance=0.5, trials=4)

    monkeypatch.setitem(
        ATTACKS, "leaky",
        AttackSpec("leaky", "half the leak under defense", "test",
                   0.5, leaky))
    matrix = MatrixRunner(attacks=("leaky",),
                          defenses=("none", "fences")).run()
    assert matrix.cell("leaky", "none").classification == "unaffected"
    assert matrix.cell("leaky", "fences").classification == "degraded"


def test_unknown_axis_names_are_rejected():
    with pytest.raises(KeyError):
        MatrixRunner(attacks=("no-such-attack",)).run()
    with pytest.raises(KeyError):
        MatrixRunner(defenses=("no-such-defense",)).run()


def test_cheap_attack_rows_all_leak_undefended():
    """Every inexpensive registered attack leaks perfectly against the
    undefended column (port-contention, the costly row, is exercised
    by the results generator instead)."""
    matrix = MatrixRunner(
        attacks=("secret-id", "interrupt-replay", "mispredict",
                 "controlled-channel"),
        defenses=("none",)).run()
    for attack in matrix.attacks:
        cell = matrix.cell(attack, "none")
        assert cell.classification == "unaffected", attack
        assert cell.metrics.accuracy == 1.0, attack
        assert cell.metrics.error is None, attack


def test_defense_notes_propagate_into_cells():
    matrix = MatrixRunner(attacks=("cf-cache",),
                          defenses=("dejavu",)).run()
    notes = matrix.cell("cf-cache", "dejavu").metrics.notes
    assert any("starvation" in note for note in notes)
