"""Baseline side-channel attacks — the comparison rows of Table 1."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.baselines.controlled_channel import (
        ControlledChannelAttack,
        ControlledChannelResult,
        build_page_secret_victim,
    )
    from repro.baselines.prime_probe import AsyncPrimeProbeAttack, PrimeProbeReport
    from repro.baselines.sgx_step import (
        SGXStepAttack,
        SteppingAttackReport,
        SteppingRunResult,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.baselines.controlled_channel": (
        "ControlledChannelAttack", "ControlledChannelResult",
        "build_page_secret_victim"),
    "repro.baselines.prime_probe": (
        "AsyncPrimeProbeAttack", "PrimeProbeReport"),
    "repro.baselines.sgx_step": (
        "SGXStepAttack", "SteppingAttackReport", "SteppingRunResult"),
})

__all__ = [
    "ControlledChannelAttack",
    "ControlledChannelResult",
    "build_page_secret_victim",
    "AsyncPrimeProbeAttack",
    "PrimeProbeReport",
    "SGXStepAttack",
    "SteppingAttackReport",
    "SteppingRunResult",
]
