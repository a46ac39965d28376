"""The experiment job service: matrices as submittable jobs.

``python -m repro serve`` boots an asyncio server that accepts
(attack × defense × config × seed) matrix jobs over a local
line-JSON socket, shards each job's cells across worker threads via
an append-only claim ledger, journals every completed cell, and
serves byte-stable results — so a server killed mid-job and
restarted resumes with **zero recomputed cells** and a bit-identical
``result.json``.

The pieces:

* :mod:`repro.service.jobs` — :class:`JobSpec` (content-addressed:
  identical matrices get identical job ids) and job lifecycle records;
* :mod:`repro.service.ledger` — :class:`CellLedger`, the
  journal-as-coordination-log that shards cells across workers;
* :mod:`repro.service.executor` — :class:`CellExecutor`, one
  worker's claim/execute/journal loop, running cells through
  :func:`repro.harness.dispatch.dispatch` and the shared
  :class:`~repro.memo.store.TrialStore`;
* :mod:`repro.service.server` — :class:`ExperimentServer` and
  :func:`serve`;
* :mod:`repro.service.client` — the blocking :class:`ServiceClient`
  (``submit`` / ``status`` / ``watch`` / ``result``), which
  :class:`repro.evaluation.MatrixRunner` uses when given
  ``service=``;
* :mod:`repro.service.protocol` — the newline-JSON wire format.

See ``docs/SERVICE.md`` for the protocol and the crash-recovery
story.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.executor import SERVICE_POLICY, CellExecutor
from repro.service.jobs import JOB_STATES, JobRecord, JobSpec, job_id
from repro.service.ledger import DEFAULT_LEASE, CellLedger
from repro.service.protocol import ProtocolError
from repro.service.server import (
    ENDPOINT_FILE,
    ExperimentServer,
    serve,
)

__all__ = [
    "DEFAULT_LEASE",
    "ENDPOINT_FILE",
    "JOB_STATES",
    "SERVICE_POLICY",
    "CellExecutor",
    "CellLedger",
    "ExperimentServer",
    "JobRecord",
    "JobSpec",
    "ProtocolError",
    "ServiceClient",
    "ServiceError",
    "job_id",
    "serve",
]
