"""MicroScope: the paper's primary contribution.

The framework has four layers:

* :mod:`repro.core.recipes` — Attack Recipes (§5.2.1);
* :mod:`repro.core.module` — the kernel module with the Table-2 API
  and the Fig.-9 fault trampoline (§5);
* :mod:`repro.core.replayer` — the Replayer orchestration driver
  (Fig. 3);
* :mod:`repro.core.attacks` — the concrete attacks of §4, §6 and §7.

Supporting analysis (thresholding, confidence, AES key recovery) lives
in :mod:`repro.core.analysis`; replay-handle discovery (§4.1.1) in
:mod:`repro.core.handles`.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.analysis import (
        ConfidenceTracker,
        ContentionSummary,
        IndexObservation,
        LineObservation,
        assemble_round_key,
        classify_hits,
        count_above,
        derive_threshold,
        majority_lines,
        recover_high_nibbles,
        recover_round_key,
        round1_byte_index,
        summarize,
    )
    from repro.core.handles import (
        HandleCandidate,
        count_memory_instructions,
        find_replay_handles,
    )
    from repro.core.module import MicroScopeConfig, MicroScopeModule, MicroScopeStats
    from repro.core.recipes import (
        AttackRecipe,
        ReplayAction,
        ReplayDecision,
        ReplayEvent,
        WalkLocation,
        WalkTuning,
        replay_n_times,
    )
    from repro.core.replayer import AttackEnvironment, Replayer

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.analysis": (
        "ConfidenceTracker", "ContentionSummary", "IndexObservation",
        "LineObservation", "assemble_round_key", "classify_hits",
        "count_above", "derive_threshold", "majority_lines",
        "recover_high_nibbles", "recover_round_key", "round1_byte_index",
        "summarize"),
    "repro.core.handles": (
        "HandleCandidate", "count_memory_instructions", "find_replay_handles"),
    "repro.core.module": (
        "MicroScopeConfig", "MicroScopeModule", "MicroScopeStats"),
    "repro.core.recipes": (
        "AttackRecipe", "ReplayAction", "ReplayDecision", "ReplayEvent",
        "WalkLocation", "WalkTuning", "replay_n_times"),
    "repro.core.replayer": ("AttackEnvironment", "Replayer"),
})

__all__ = [
    "ConfidenceTracker",
    "ContentionSummary",
    "IndexObservation",
    "LineObservation",
    "assemble_round_key",
    "classify_hits",
    "count_above",
    "derive_threshold",
    "majority_lines",
    "recover_high_nibbles",
    "recover_round_key",
    "round1_byte_index",
    "summarize",
    "HandleCandidate",
    "count_memory_instructions",
    "find_replay_handles",
    "MicroScopeConfig",
    "MicroScopeModule",
    "MicroScopeStats",
    "AttackRecipe",
    "ReplayAction",
    "ReplayDecision",
    "ReplayEvent",
    "WalkLocation",
    "WalkTuning",
    "replay_n_times",
    "AttackEnvironment",
    "Replayer",
]
