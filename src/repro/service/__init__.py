"""The experiment job service: matrices as submittable jobs.

``python -m repro serve`` boots an asyncio server that accepts
(attack × defense × config × seed) matrix jobs over a local
line-JSON socket, runs each job's cells through the one trial
dispatcher (the supervised process pool for ``workers > 1``),
journals every completed cell, and serves byte-stable results — so a
server killed mid-job and restarted resumes with **zero recomputed
cells** and a bit-identical ``result.json``.

The pieces:

* :mod:`repro.service.jobs` — :class:`JobSpec` (content-addressed:
  identical matrices get identical job ids) and job lifecycle records;
* :mod:`repro.service.executor` — :class:`CellExecutor`, one job's
  batch loop: trial store first, then
  :func:`repro.harness.dispatch.dispatch`, every cell journalled;
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

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.service.client import ServiceClient, ServiceError
    from repro.service.executor import SERVICE_POLICY, CellExecutor
    from repro.service.jobs import JOB_STATES, JobRecord, JobSpec, job_id
    from repro.service.protocol import ProtocolError
    from repro.service.server import (
        ENDPOINT_FILE,
        ExperimentServer,
        serve,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.service.client": ("ServiceClient", "ServiceError"),
    "repro.service.executor": ("SERVICE_POLICY", "CellExecutor"),
    "repro.service.jobs": ("JOB_STATES", "JobRecord", "JobSpec", "job_id"),
    "repro.service.protocol": ("ProtocolError",),
    "repro.service.server": ("ENDPOINT_FILE", "ExperimentServer", "serve"),
})

__all__ = [
    "ENDPOINT_FILE",
    "JOB_STATES",
    "SERVICE_POLICY",
    "CellExecutor",
    "ExperimentServer",
    "JobRecord",
    "JobSpec",
    "ProtocolError",
    "ServiceClient",
    "ServiceError",
    "job_id",
    "serve",
]
