"""The canonical home of the §8 countermeasures.

Three layers live here:

* :mod:`repro.evaluation.defenses.specs` — :class:`DefenseSpec`, the
  mechanism-level reduction of each defense that the evaluation
  matrix columns are built from (machine knobs, replay budgets,
  victim transforms, detection budgets);
* the faithful standalone models and their evaluation drivers —
  :mod:`~repro.evaluation.defenses.fences`,
  :mod:`~repro.evaluation.defenses.dejavu`,
  :mod:`~repro.evaluation.defenses.tsgx` and
  :mod:`~repro.evaluation.defenses.pf_oblivious`;
* machine-level :class:`~repro.evaluation.defenses.mechanisms.\
DefenseMechanism` models installed through ``MachineConfig.defense``
  — the fences mechanism in :mod:`~repro.evaluation.defenses.fences`,
  :mod:`~repro.evaluation.defenses.jamais_vu`,
  :mod:`~repro.evaluation.defenses.delay_on_squash`,
  :mod:`~repro.evaluation.defenses.simf` and
  :mod:`~repro.evaluation.defenses.leash`.

Importing this package imports every mechanism module, which is what
populates the :data:`~repro.evaluation.defenses.mechanisms.MECHANISMS`
registry ``Machine.__init__`` resolves schemes against.
"""

from repro.evaluation.defenses.dejavu import (
    DejaVuReport,
    build_clock_program,
    build_timed_victim,
    evaluate_dejavu,
)
from repro.evaluation.defenses.delay_on_squash import (
    SIDE_CHANNEL_CLASSES,
    DelayOnSquashMechanism,
    DelayOnSquashReport,
    delay_on_squash_machine,
    evaluate_delay_on_squash,
)
from repro.evaluation.defenses.fences import (
    FenceDefenseReport,
    FenceOnFlushMechanism,
    count_transmit_issues,
    evaluate_fence_on_flush,
    fences_machine,
)
from repro.evaluation.defenses.jamais_vu import (
    JAMAIS_VU_VARIANTS,
    JamaisVuMechanism,
    JamaisVuReport,
    evaluate_jamais_vu,
    jamais_vu_machine,
)
from repro.evaluation.defenses.leash import (
    LeashMechanism,
    LeashReport,
    evaluate_leash,
    leash_machine,
)
from repro.evaluation.defenses.mechanisms import (
    MECHANISMS,
    DefenseMechanism,
    build_mechanism,
    install_defense,
    nonspeculative,
    register_mechanism,
)
from repro.evaluation.defenses.pf_oblivious import (
    ObliviousCFVictim,
    PFObliviousReport,
    evaluate_pf_obliviousness,
    page_trace,
    setup_oblivious_cf_victim,
)
from repro.evaluation.defenses.simf import (
    SIMFFlushMechanism,
    SIMFReport,
    evaluate_simf,
    is_kernel_entry,
    simf_machine,
)
from repro.evaluation.defenses.specs import (
    DEFENSES,
    DEJAVU_BUDGET_TICKS,
    DEJAVU_FAULT_COST,
    DefenseSpec,
    defense_names,
    get_defense,
)
from repro.evaluation.defenses.tsgx import (
    TSGX_THRESHOLD,
    TSGXReport,
    evaluate_tsgx,
    wrap_with_tsgx,
)

__all__ = [
    "DEFENSES",
    "DEJAVU_BUDGET_TICKS",
    "DEJAVU_FAULT_COST",
    "DefenseMechanism",
    "DefenseSpec",
    "DejaVuReport",
    "DelayOnSquashMechanism",
    "DelayOnSquashReport",
    "FenceDefenseReport",
    "FenceOnFlushMechanism",
    "JAMAIS_VU_VARIANTS",
    "JamaisVuMechanism",
    "JamaisVuReport",
    "LeashMechanism",
    "LeashReport",
    "MECHANISMS",
    "ObliviousCFVictim",
    "PFObliviousReport",
    "SIDE_CHANNEL_CLASSES",
    "SIMFFlushMechanism",
    "SIMFReport",
    "TSGX_THRESHOLD",
    "TSGXReport",
    "build_clock_program",
    "build_mechanism",
    "build_timed_victim",
    "count_transmit_issues",
    "fences_machine",
    "defense_names",
    "delay_on_squash_machine",
    "evaluate_dejavu",
    "evaluate_delay_on_squash",
    "evaluate_fence_on_flush",
    "evaluate_jamais_vu",
    "evaluate_leash",
    "evaluate_pf_obliviousness",
    "evaluate_simf",
    "evaluate_tsgx",
    "get_defense",
    "install_defense",
    "is_kernel_entry",
    "jamais_vu_machine",
    "leash_machine",
    "nonspeculative",
    "page_trace",
    "register_mechanism",
    "setup_oblivious_cf_victim",
    "simf_machine",
    "wrap_with_tsgx",
]
