"""SGX substrate: enclaves, AEX, attestation and rollback protection."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.sgx.attestation import (
        AttestationReport,
        MonotonicCounter,
        RunOnceGuard,
        measure_program,
    )
    from repro.sgx.enclave import (
        AEXRecord,
        Enclave,
        EnclaveConfig,
        EnclaveProtectionError,
        SGXPlatform,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sgx.attestation": (
        "AttestationReport", "MonotonicCounter", "RunOnceGuard",
        "measure_program"),
    "repro.sgx.enclave": (
        "AEXRecord", "Enclave", "EnclaveConfig", "EnclaveProtectionError",
        "SGXPlatform"),
})

__all__ = [
    "AttestationReport",
    "MonotonicCounter",
    "RunOnceGuard",
    "measure_program",
    "AEXRecord",
    "Enclave",
    "EnclaveConfig",
    "EnclaveProtectionError",
    "SGXPlatform",
]
