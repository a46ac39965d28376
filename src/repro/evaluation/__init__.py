"""Attack × defense evaluation: the matrix behind ``docs/RESULTS.md``.

This package runs every registered attack against every registered
defense configuration (including the undefended ``"none"`` column)
and classifies each cell as ``defeated`` / ``degraded`` /
``unaffected`` — the reproduction of the paper's §8 argument that
MicroScope survives the deployed mitigations.  See
``docs/DEFENSES.md`` for the defense models and
``python -m repro.tools.results`` for the generated artifacts.

Typical use::

    from repro.evaluation import MatrixRunner

    matrix = MatrixRunner(
        attacks=("cf-cache", "controlled-channel"),
        defenses=("none", "fences", "pf-oblivious"),
    ).run()
    print(matrix.summary_markdown())
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.evaluation.attacks import (
        ATTACKS,
        AttackSpec,
        attack_names,
        get_attack,
    )
    from repro.evaluation.classify import (
        CLASSIFICATIONS,
        EPSILON,
        CellMetrics,
        classify_cell,
    )
    from repro.evaluation.defenses import (
        DEFENSES,
        DefenseSpec,
        defense_names,
        get_defense,
    )
    from repro.evaluation.matrix import (
        DEFAULT_LABEL,
        DEFAULT_MASTER_SEED,
        EvaluationMatrix,
        MatrixCell,
        MatrixRunner,
        build_matrix,
        matrix_params,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.evaluation.attacks": (
        "ATTACKS", "AttackSpec", "attack_names", "get_attack"),
    "repro.evaluation.classify": (
        "CLASSIFICATIONS", "EPSILON", "CellMetrics", "classify_cell"),
    "repro.evaluation.defenses": (
        "DEFENSES", "DefenseSpec", "defense_names", "get_defense"),
    "repro.evaluation.matrix": (
        "DEFAULT_LABEL", "DEFAULT_MASTER_SEED", "EvaluationMatrix",
        "MatrixCell", "MatrixRunner", "build_matrix", "matrix_params"),
})

__all__ = [
    "ATTACKS",
    "AttackSpec",
    "CLASSIFICATIONS",
    "CellMetrics",
    "DEFAULT_LABEL",
    "DEFAULT_MASTER_SEED",
    "DEFENSES",
    "DefenseSpec",
    "EPSILON",
    "EvaluationMatrix",
    "MatrixCell",
    "MatrixRunner",
    "attack_names",
    "build_matrix",
    "classify_cell",
    "defense_names",
    "matrix_params",
    "get_attack",
    "get_defense",
]
