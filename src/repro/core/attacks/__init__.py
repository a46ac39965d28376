"""End-to-end microarchitectural replay attacks."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.attacks.aes_cache import (
        AESCacheAttack,
        ExtractionResult,
        Figure11Result,
        ProbeRecord,
    )
    from repro.core.attacks.adaptive import AdaptiveAttackResult, AdaptiveWalkAttack
    from repro.core.attacks.aes_key_recovery import (
        AESKeyRecoveryAttack,
        KeyRecoveryResult,
        Round1Attribution,
        attribute_round1,
        nibble_candidates,
    )
    from repro.core.attacks.control_flow import (
        CacheCFVictim,
        ControlFlowCacheAttack,
        ControlFlowCacheResult,
        setup_cache_cf_victim,
    )
    from repro.core.attacks.interrupt_replay import (
        InterruptReplayAttack,
        InterruptReplayResult,
    )
    from repro.core.attacks.loop_secret import LoopSecretAttack, LoopSecretResult
    from repro.core.attacks.mispredict_replay import (
        MispredictReplayAttack,
        MispredictReplayResult,
        infer_secret_by_priming,
    )
    from repro.core.attacks.port_contention import (
        PortContentionAttack,
        PortContentionResult,
        run_figure10,
    )
    from repro.core.attacks.rdrand import RdrandBiasAttack, RdrandBiasResult
    from repro.core.attacks.rsa import ModExpExtractionAttack, ModExpExtractionResult
    from repro.core.attacks.single_secret import (
        SUBNORMAL,
        SecretIdExtractionAttack,
        SecretIdResult,
        SubnormalDetectionAttack,
        SubnormalResult,
    )
    from repro.core.attacks.tsx_replay import (
        TSXReplayAttack,
        TSXReplayResult,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.attacks.aes_cache": (
        "AESCacheAttack", "ExtractionResult", "Figure11Result", "ProbeRecord"),
    "repro.core.attacks.adaptive": (
        "AdaptiveAttackResult", "AdaptiveWalkAttack"),
    "repro.core.attacks.aes_key_recovery": (
        "AESKeyRecoveryAttack", "KeyRecoveryResult", "Round1Attribution",
        "attribute_round1", "nibble_candidates"),
    "repro.core.attacks.control_flow": (
        "CacheCFVictim", "ControlFlowCacheAttack", "ControlFlowCacheResult",
        "setup_cache_cf_victim"),
    "repro.core.attacks.interrupt_replay": (
        "InterruptReplayAttack", "InterruptReplayResult"),
    "repro.core.attacks.loop_secret": ("LoopSecretAttack", "LoopSecretResult"),
    "repro.core.attacks.mispredict_replay": (
        "MispredictReplayAttack", "MispredictReplayResult",
        "infer_secret_by_priming"),
    "repro.core.attacks.port_contention": (
        "PortContentionAttack", "PortContentionResult", "run_figure10"),
    "repro.core.attacks.rdrand": ("RdrandBiasAttack", "RdrandBiasResult"),
    "repro.core.attacks.rsa": (
        "ModExpExtractionAttack", "ModExpExtractionResult"),
    "repro.core.attacks.single_secret": (
        "SUBNORMAL", "SecretIdExtractionAttack", "SecretIdResult",
        "SubnormalDetectionAttack", "SubnormalResult"),
    "repro.core.attacks.tsx_replay": ("TSXReplayAttack", "TSXReplayResult"),
})

__all__ = [
    "AdaptiveAttackResult",
    "AdaptiveWalkAttack",
    "AESCacheAttack",
    "AESKeyRecoveryAttack",
    "KeyRecoveryResult",
    "Round1Attribution",
    "attribute_round1",
    "nibble_candidates",
    "ExtractionResult",
    "Figure11Result",
    "ProbeRecord",
    "CacheCFVictim",
    "ControlFlowCacheAttack",
    "ControlFlowCacheResult",
    "setup_cache_cf_victim",
    "InterruptReplayAttack",
    "InterruptReplayResult",
    "LoopSecretAttack",
    "LoopSecretResult",
    "MispredictReplayAttack",
    "MispredictReplayResult",
    "infer_secret_by_priming",
    "PortContentionAttack",
    "PortContentionResult",
    "run_figure10",
    "RdrandBiasAttack",
    "RdrandBiasResult",
    "ModExpExtractionAttack",
    "ModExpExtractionResult",
    "SUBNORMAL",
    "SecretIdExtractionAttack",
    "SecretIdResult",
    "SubnormalDetectionAttack",
    "SubnormalResult",
    "TSXReplayAttack",
    "TSXReplayResult",
]
