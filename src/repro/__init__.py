"""MicroScope: Enabling Microarchitectural Replay Attacks (ISCA 2019).

A full-system reproduction of Skarlatos et al.'s MicroScope on a
cycle-level simulator written from scratch:

* :mod:`repro.isa` -- the micro-ISA, programs and assembler;
* :mod:`repro.cpu` -- the out-of-order SMT core and machine;
* :mod:`repro.mem` -- physical memory and the cache hierarchy;
* :mod:`repro.vm` -- page tables, TLBs, PWC and the hardware walker;
* :mod:`repro.kernel` -- the simulated OS;
* :mod:`repro.sgx` -- enclaves, AEX, attestation;
* :mod:`repro.crypto` -- OpenSSL-style table AES;
* :mod:`repro.victims` -- the paper's victim/monitor programs;
* :mod:`repro.core` -- MicroScope itself: recipes, kernel module,
  Replayer, attacks and analysis;
* :mod:`repro.evaluation.defenses` -- the Section 8 countermeasures;
* :mod:`repro.baselines` -- the Table-1 comparison attacks;
* :mod:`repro.evaluation` -- the attack x defense matrix behind
  ``docs/RESULTS.md``;
* :mod:`repro.memo` -- the content-addressed, on-disk trial store;
* :mod:`repro.oracle` -- the taint-tracking leakage oracle: "does
  this defense work" as a checkable information-flow property
  (``Experiment(oracle=True)``, ``MatrixRunner(oracle=True)``,
  ``python -m repro oracle``; see ``docs/ORACLE.md``).

The public surface is promoted to this top level (and snapshotted by
``tests/api/api_surface.json``), so everyday use is one import::

    import repro

    result = repro.Experiment(
        attack=repro.PortContentionAttack(measurements=1500),
        victim={"secret": 1},
    ).run().result
    print(result.above_threshold, result.verdict)

Configuration lives in :mod:`repro.config`, sweep execution in
:mod:`repro.harness`, and the facade itself in
:mod:`repro.experiment`; the deeper module paths all remain public
for code that wants one abstraction level down.  Long-running
evaluation work can also be submitted to the job service
(``python -m repro serve``; :mod:`repro.service`) instead of
executing in-process — see ``docs/SERVICE.md``.
"""

from repro.config import (
    CacheConfig,
    CoreConfig,
    DefenseHookConfig,
    HierarchyConfig,
    MachineConfig,
    PWCConfig,
    TLBConfig,
    TLBHierarchyConfig,
    from_dict,
    to_dict,
)
from repro.core.attacks import (
    AESCacheAttack,
    AESKeyRecoveryAttack,
    ModExpExtractionAttack,
    PortContentionAttack,
    run_figure10,
)
from repro.core.module import MicroScopeConfig
from repro.core.replayer import AttackEnvironment, Replayer
from repro.cpu.machine import Machine
from repro.cpu.observer import Observer
from repro.evaluation import (
    AttackSpec,
    CellMetrics,
    DefenseSpec,
    EvaluationMatrix,
    MatrixCell,
    MatrixRunner,
    classify_cell,
)
from repro.experiment import Experiment, ExperimentReport
from repro.harness import (
    ChaosPlan,
    FaultPolicy,
    SweepJournal,
    SweepReport,
    default_workers,
    derive_seed,
    merge_ordered,
    run_resilient_sweep,
)
from repro.kernel.kernel import KernelConfig
from repro.memo import (
    TrialStore,
    Unmemoizable,
    resolve_store,
    trial_key,
)
from repro.observability import EventTracer, MetricsRegistry
from repro.oracle import (
    LeakageEvent,
    LeakageSummary,
    OracleConfig,
    TaintOracle,
    oracle_consistency_verify,
)
from repro.service import JobSpec, ServiceClient, ServiceError
from repro.sgx.enclave import EnclaveConfig
from repro.snapshot import MachineSnapshot, state_digest, warm_start

__version__ = "2.0.0"

__all__ = [
    "AESCacheAttack",
    "AESKeyRecoveryAttack",
    "AttackEnvironment",
    "AttackSpec",
    "CacheConfig",
    "CellMetrics",
    "ChaosPlan",
    "CoreConfig",
    "DefenseHookConfig",
    "DefenseSpec",
    "EnclaveConfig",
    "EvaluationMatrix",
    "EventTracer",
    "Experiment",
    "ExperimentReport",
    "FaultPolicy",
    "HierarchyConfig",
    "JobSpec",
    "KernelConfig",
    "LeakageEvent",
    "LeakageSummary",
    "Machine",
    "MachineConfig",
    "MachineSnapshot",
    "MatrixCell",
    "MatrixRunner",
    "MetricsRegistry",
    "MicroScopeConfig",
    "ModExpExtractionAttack",
    "Observer",
    "OracleConfig",
    "PWCConfig",
    "PortContentionAttack",
    "Replayer",
    "ServiceClient",
    "ServiceError",
    "SweepJournal",
    "SweepReport",
    "TLBConfig",
    "TLBHierarchyConfig",
    "TaintOracle",
    "TrialStore",
    "Unmemoizable",
    "classify_cell",
    "default_workers",
    "derive_seed",
    "from_dict",
    "merge_ordered",
    "oracle_consistency_verify",
    "resolve_store",
    "run_figure10",
    "run_resilient_sweep",
    "state_digest",
    "to_dict",
    "trial_key",
    "warm_start",
    "__version__",
]
