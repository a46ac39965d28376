"""``repro.service`` — the asyncio experiment job server.

``python -m repro serve --state-dir DIR`` turns the evaluation matrix
into a service: clients submit (attack × defense × config × seed)
jobs over a local socket, the server runs each job through one
:class:`~repro.service.executor.CellExecutor` (its cells go to the
supervised process pool when the job asks for ``workers > 1``), and
every intermediate is a file in the job directory::

    DIR/
      endpoint.json            # {"host": ..., "port": ..., "pid": ...}
      store/                   # shared content-addressed TrialStore
      jobs/<job id>/
        spec.json              # the resolved JobSpec
        journal.jsonl          # sweep journal — completion truth
        result.json            # the EvaluationMatrix (byte-stable)
        metrics.json           # the job's SweepReport + registry dump

Crash safety is structural, not transactional: kill the server at any
instant and restart it on the same state directory — boot recovery
re-enqueues every job with a spec but no result and its executor
resumes from the journal, so no journalled cell ever reruns and the
final ``result.json`` is byte-identical to an uninterrupted run
(enforced by the ``service-smoke`` CI job).
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Set

from repro.evaluation.matrix import (
    _cell_trial,
    build_matrix,
    import_cell_modules,
)
from repro.observability.registry import MetricsRegistry
from repro.service.executor import CellExecutor
from repro.service.jobs import JobRecord, JobSpec, job_id
from repro.service.protocol import (
    ProtocolError,
    read_message,
    send_message,
)

#: File announcing where a running server listens.
ENDPOINT_FILE = "endpoint.json"


def _atomic_write(path: Path, data: bytes) -> None:
    """Write via tempfile + rename so readers never see a torn file."""
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


class ExperimentServer:
    """The job server: queue, executors, and the line-JSON endpoint."""

    def __init__(self, state_dir, *, host: str = "127.0.0.1",
                 port: int = 0, cache_dir: Any = None) -> None:
        self.state_dir = Path(state_dir)
        self.host = host
        self.port = port
        self.jobs: Dict[str, JobRecord] = {}
        self._cache_dir = Path(cache_dir) if cache_dir is not None \
            else self.state_dir / "store"
        self._store: Any = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._tasks: Set[asyncio.Task] = set()
        self._watchers: Dict[str, List[asyncio.Queue]] = {}
        self._stopping: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # --- paths ------------------------------------------------------------

    def job_dir(self, job: str) -> Path:
        """The on-disk directory of one job."""
        return self.state_dir / "jobs" / job

    @property
    def endpoint_path(self) -> Path:
        """Where :data:`ENDPOINT_FILE` lives for this state dir."""
        return self.state_dir / ENDPOINT_FILE

    # --- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket, write the endpoint file, recover jobs."""
        from repro.memo.store import TrialStore
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self._store = TrialStore(self._cache_dir)
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.host, self.port = \
            self._server.sockets[0].getsockname()[:2]
        _atomic_write(self.endpoint_path, json.dumps(
            {"host": self.host, "pid": os.getpid(),
             "port": self.port}, sort_keys=True).encode() + b"\n")
        self._recover()

    def _recover(self) -> None:
        """Re-enqueue every job a dead server left unfinished."""
        jobs_root = self.state_dir / "jobs"
        if not jobs_root.is_dir():
            return
        for spec_path in sorted(jobs_root.glob("*/spec.json")):
            jid = spec_path.parent.name
            try:
                spec = JobSpec.from_dict(
                    json.loads(spec_path.read_text()))
            except (OSError, ValueError, KeyError):
                continue
            record = JobRecord(job=jid, spec=spec,
                               total=spec.trial_count)
            self.jobs[jid] = record
            if (spec_path.parent / "result.json").exists():
                record.state = "done"
                record.done = record.total
            else:
                self._launch(record)

    async def run_forever(self) -> None:
        """Serve until :meth:`stop` (or the ``shutdown`` op)."""
        assert self._stopping is not None
        await self._stopping.wait()
        await self._shutdown()

    def stop(self) -> None:
        """Ask the server to wind down (idempotent, thread-unsafe)."""
        if self._stopping is not None:
            self._stopping.set()

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks,
                                 return_exceptions=True)
        try:
            self.endpoint_path.unlink()
        except OSError:
            pass

    # --- job execution ----------------------------------------------------

    def _launch(self, record: JobRecord) -> None:
        assert self._loop is not None
        task = self._loop.create_task(self._run_job(record))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _notify(self, job: str, event: Dict[str, Any]) -> None:
        for queue in self._watchers.get(job, []):
            queue.put_nowait(event)

    def _progress(self, record: JobRecord, done: int) -> None:
        """Thread-safe progress hook handed to executors."""
        def apply() -> None:
            if done > record.done:
                record.done = done
                self._notify(record.job, {
                    "event": "progress", "job": record.job,
                    "done": record.done, "total": record.total})
        assert self._loop is not None
        self._loop.call_soon_threadsafe(apply)

    async def _run_job(self, record: JobRecord) -> None:
        spec = record.spec.resolved()
        job_dir = self.job_dir(record.job)
        params = spec.cells()
        record.total = len(params)
        record.state = "running"
        self._notify(record.job, {"event": "state",
                                  "job": record.job,
                                  "state": "running"})
        t0 = time.perf_counter()
        try:
            if spec.workers > 1:
                # Pool workers fork per attempt: import what the cells
                # run once here, so each worker inherits it.
                await asyncio.to_thread(import_cell_modules,
                                        spec.attacks, spec.defenses)
            stopping = self._stopping
            executor = CellExecutor(
                trial_fn=_cell_trial, params=params,
                journal_path=job_dir / "journal.jsonl",
                master_seed=spec.master_seed, label=spec.label,
                workers=spec.workers, store=self._store,
                on_progress=lambda done: self._progress(record, done),
                should_stop=(stopping.is_set
                             if stopping is not None else None))
            results, report = await asyncio.to_thread(executor.run)
            if stopping is not None and stopping.is_set():
                return  # shutdown mid-job: leave it resumable
            matrix = build_matrix(
                spec.attacks, spec.defenses, params, results,
                master_seed=spec.master_seed, label=spec.label)
            _atomic_write(job_dir / "result.json", (json.dumps(
                matrix.to_dict(), sort_keys=True, indent=2)
                + "\n").encode("utf-8"))
            record.wall_seconds = time.perf_counter() - t0
            registry = MetricsRegistry()
            report.record_into(registry, prefix="service.job")
            record.metrics = registry.dump()
            record.cache = report.cache
            _atomic_write(job_dir / "metrics.json", (json.dumps(
                {"cache": record.cache, "job": record.job,
                 "metrics": record.metrics,
                 "report": report.to_dict(),
                 "wall_seconds": record.wall_seconds},
                sort_keys=True, indent=2) + "\n").encode("utf-8"))
            record.done = record.total
            record.state = "done"
        except Exception as exc:  # noqa: BLE001 - job must not kill server
            record.state = "failed"
            record.error = f"{type(exc).__name__}: {exc}"
        finally:
            if record.state != "running":
                self._notify(record.job, {
                    "event": "state", "job": record.job,
                    "state": record.state,
                    "error": record.error or None})

    # --- the endpoint -----------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    message = await read_message(reader)
                except ProtocolError as exc:
                    await send_message(writer, {"ok": False,
                                                "error": str(exc)})
                    break
                if message is None:
                    break
                try:
                    done = await self._dispatch(message, writer)
                except Exception as exc:  # noqa: BLE001 - reply, don't die
                    await send_message(writer, {
                        "ok": False,
                        "error": f"{type(exc).__name__}: {exc}"})
                    done = False
                if done:
                    break
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _dispatch(self, message: Dict[str, Any],
                        writer: asyncio.StreamWriter) -> bool:
        """Handle one request; ``True`` closes the connection."""
        op = message.get("op")
        if op == "ping":
            await send_message(writer, {"ok": True, "pid": os.getpid(),
                                        "pong": True})
            return False
        if op == "submit":
            await send_message(writer, self._op_submit(message))
            return False
        if op == "status":
            await send_message(writer,
                               self._op_status(message.get("job")))
            return False
        if op == "result":
            await send_message(writer,
                               self._op_result(message.get("job")))
            return False
        if op == "jobs":
            await send_message(writer, {
                "ok": True,
                "jobs": [self.jobs[j].status()
                         for j in sorted(self.jobs)]})
            return False
        if op == "watch":
            await self._op_watch(message.get("job"), writer)
            return True
        if op == "shutdown":
            await send_message(writer, {"ok": True, "stopping": True})
            self.stop()
            return True
        raise ValueError(f"unknown op {op!r}")

    def _op_submit(self, message: Dict[str, Any]) -> Dict[str, Any]:
        spec = JobSpec.from_dict(message.get("spec") or {})
        jid = job_id(spec)
        record = self.jobs.get(jid)
        if record is None:
            resolved = spec.resolved()
            record = JobRecord(job=jid, spec=resolved,
                               total=resolved.trial_count)
            self.jobs[jid] = record
            job_dir = self.job_dir(jid)
            job_dir.mkdir(parents=True, exist_ok=True)
            _atomic_write(job_dir / "spec.json", (json.dumps(
                resolved.to_dict(), sort_keys=True, indent=2)
                + "\n").encode("utf-8"))
            self._launch(record)
        elif record.state == "failed":
            # Resubmission retries a failed job from its journal.
            record.state = "queued"
            record.error = ""
            self._launch(record)
        return {"ok": True, "job": jid, "state": record.state}

    def _op_status(self, job: Optional[str]) -> Dict[str, Any]:
        record = self.jobs.get(job or "")
        if record is None:
            return {"ok": False, "error": f"unknown job {job!r}"}
        payload = record.status()
        payload["ok"] = True
        return payload

    def _op_result(self, job: Optional[str]) -> Dict[str, Any]:
        record = self.jobs.get(job or "")
        if record is None:
            return {"ok": False, "error": f"unknown job {job!r}"}
        if record.state != "done":
            return {"ok": False,
                    "error": f"job {job} is {record.state}, "
                             f"not done"}
        result = json.loads(
            (self.job_dir(record.job) / "result.json").read_text())
        return {"ok": True, "job": record.job, "result": result}

    async def _op_watch(self, job: Optional[str],
                        writer: asyncio.StreamWriter) -> None:
        """Stream progress events until the job reaches a terminal
        state, then close."""
        record = self.jobs.get(job or "")
        if record is None:
            await send_message(writer, {"ok": False,
                                        "error": f"unknown job {job!r}"})
            return
        queue: asyncio.Queue = asyncio.Queue()
        self._watchers.setdefault(record.job, []).append(queue)
        try:
            await send_message(writer, {
                "event": "snapshot", "job": record.job, "ok": True,
                "state": record.state, "done": record.done,
                "total": record.total})
            while record.state not in ("done", "failed"):
                try:
                    event = await asyncio.wait_for(queue.get(),
                                                   timeout=0.5)
                except asyncio.TimeoutError:
                    continue
                await send_message(writer, event)
            await send_message(writer, {
                "event": "state", "job": record.job,
                "state": record.state,
                "error": record.error or None})
        finally:
            self._watchers.get(record.job, []).remove(queue)


async def _serve(state_dir, *, host: str, port: int, cache_dir: Any,
                 on_ready: Any = None) -> ExperimentServer:
    server = ExperimentServer(state_dir, host=host, port=port,
                              cache_dir=cache_dir)
    await server.start()
    if on_ready is not None:
        on_ready(server)
    await server.run_forever()
    return server


def serve(state_dir, *, host: str = "127.0.0.1", port: int = 0,
          cache_dir: Any = None, on_ready: Any = None) -> None:
    """Run a server until shutdown — the ``python -m repro serve``
    entry point.  *on_ready* (if given) is called with the bound
    :class:`ExperimentServer` once the endpoint file is written."""
    asyncio.run(_serve(state_dir, host=host, port=port,
                       cache_dir=cache_dir, on_ready=on_ready))


__all__ = ["ENDPOINT_FILE", "ExperimentServer", "serve"]
