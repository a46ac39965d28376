"""The job server end to end: submit, status, watch, result,
recovery — against a real asyncio server on a real socket."""

import json
import threading
from contextlib import contextmanager

import pytest

from repro.evaluation import EvaluationMatrix, MatrixRunner
from repro.service import (
    JobSpec,
    ServiceClient,
    ServiceError,
    job_id,
    serve,
)

#: The cheap matrix every test submits (two cells, ~0.4 s).
ATTACKS = ("cf-cache",)
DEFENSES = ("none", "fences")


def _submit_and_wait(client):
    spec = JobSpec(attacks=ATTACKS, defenses=DEFENSES)
    submitted = client.submit(spec)
    status = client.wait(submitted["job"], timeout=120)
    assert status["state"] == "done", status
    return spec, submitted["job"], status


@contextmanager
def _server(state):
    """A live server on *state* (and its own trial store)."""
    ready = threading.Event()
    thread = threading.Thread(
        target=serve, args=(state,),
        kwargs={"on_ready": lambda s: ready.set()}, daemon=True)
    thread.start()
    assert ready.wait(15), "server never came up"
    client = ServiceClient(state_dir=state)
    try:
        yield client
    finally:
        client.shutdown()
        thread.join(timeout=15)


def test_ping(service):
    client, _ = service
    reply = client.ping()
    assert reply["pong"] is True
    assert reply["pid"] > 0


def test_submit_runs_job_to_done(service):
    client, state = service
    spec, jid, status = _submit_and_wait(client)
    assert jid == job_id(spec)
    assert status["done"] == status["total"] == 2
    assert status["cache"]["stores"] == 2
    assert status["metrics"]  # registry dump travels on status
    job_dir = state / "jobs" / jid
    for artifact in ("spec.json", "journal.jsonl", "result.json",
                     "metrics.json"):
        assert (job_dir / artifact).exists(), artifact
    metrics = json.loads((job_dir / "metrics.json").read_text())
    assert metrics["report"]["resolutions"]["ok"] == 2


def _pool_job(client, workers):
    """Run two cells that share one warm-start key as one job on
    *workers* pool workers; return the spec and the result payload."""
    spec = JobSpec(attacks=("port-contention",),
                   defenses=("none", "dejavu"),
                   overrides={"port-contention": {"measurements": 200}},
                   workers=workers)
    status = client.wait(client.submit(spec)["job"], timeout=120)
    assert status["state"] == "done", status
    return spec, client.result(status["job"])


def test_pool_job_matches_inline_job_and_local_run(service, tmp_path):
    client, _ = service
    spec, pooled = _pool_job(client, workers=2)
    with _server(tmp_path / "inline") as inline:
        _spec, inline_result = _pool_job(inline, workers=1)
    assert pooled == inline_result
    local = MatrixRunner(attacks=spec.attacks, defenses=spec.defenses,
                         overrides=spec.overrides, workers=1).run()
    assert EvaluationMatrix.from_dict(pooled).to_dict() \
        == local.to_dict()


def test_pool_job_imports_cell_modules_before_forking(service,
                                                     monkeypatch):
    """A job on the process pool imports its rows' attack and mechanism
    modules once, in the server, so forked workers inherit them; an
    inline job has no workers to fork and skips it."""
    from repro.service import server

    calls = []
    real = server.import_cell_modules

    def recording(attacks, defenses):
        calls.append((tuple(attacks), tuple(defenses)))
        real(attacks, defenses)

    monkeypatch.setattr(server, "import_cell_modules", recording)
    client, _ = service
    for workers in (1, 2):
        # A job id ignores the worker count: the label keeps two jobs.
        spec = JobSpec(attacks=ATTACKS, defenses=DEFENSES, label=str(workers),
                       workers=workers)
        status = client.wait(client.submit(spec)["job"], timeout=120)
        assert status["state"] == "done", status
    assert calls == [(ATTACKS, DEFENSES)]


def test_result_matches_local_matrix_run(service):
    client, _ = service
    _spec, jid, _ = _submit_and_wait(client)
    remote = EvaluationMatrix.from_dict(client.result(jid))
    local = MatrixRunner(attacks=ATTACKS, defenses=DEFENSES).run()
    assert remote.to_dict() == local.to_dict()


def test_matrix_runner_routes_through_service(service):
    client, state = service
    runner = MatrixRunner(attacks=ATTACKS, defenses=DEFENSES,
                          service=state)
    matrix = runner.run()
    assert runner.last_run_report is None
    local = MatrixRunner(attacks=ATTACKS, defenses=DEFENSES).run()
    assert matrix.to_dict() == local.to_dict()
    # The runner's submission landed as a service job.
    assert any(job["state"] == "done" for job in client.jobs())


def test_resubmit_is_idempotent_and_serves_from_store(service):
    client, _ = service
    spec, jid, _ = _submit_and_wait(client)
    again = client.submit(spec)
    assert again["job"] == jid
    assert again["state"] == "done"  # nothing re-enqueued


def test_watch_streams_until_terminal_state(service):
    client, _ = service
    spec = JobSpec(attacks=ATTACKS, defenses=DEFENSES)
    submitted = client.submit(spec)
    events = list(client.watch(submitted["job"]))
    assert events[0]["event"] == "snapshot"
    assert events[-1]["event"] == "state"
    assert events[-1]["state"] == "done"


def test_status_unknown_job(service):
    client, _ = service
    with pytest.raises(ServiceError, match="unknown job"):
        client.status("deadbeef")


def test_result_before_done_is_refused(service):
    client, _ = service
    with pytest.raises(ServiceError, match="unknown job"):
        client.result("deadbeef")


def test_unknown_op_is_an_error_not_a_crash(service):
    client, _ = service
    with pytest.raises(ServiceError, match="unknown op"):
        client._request({"op": "frobnicate"})
    assert client.ping()["pong"] is True  # server survived


def test_submit_rejects_unknown_attack(service):
    client, _ = service
    with pytest.raises(ServiceError, match="unknown attack"):
        client.submit(JobSpec(attacks=("warp-attack",)))
    assert client.ping()["pong"] is True


def test_recovery_completes_job_from_prior_state(tmp_path):
    """A spec.json without result.json is re-enqueued at boot and
    resumes from its journal — the recovery path the kill/restart CI
    smoke (benchmarks/ci_service_smoke.py) exercises with SIGKILL."""
    state = tmp_path / "state"
    spec = JobSpec(attacks=ATTACKS, defenses=DEFENSES).resolved()
    jid = job_id(spec)
    job_dir = state / "jobs" / jid
    job_dir.mkdir(parents=True)
    (job_dir / "spec.json").write_text(
        json.dumps(spec.to_dict(), sort_keys=True))

    with _server(state) as client:
        status = client.wait(jid, timeout=120)
        assert status["state"] == "done"
        remote = EvaluationMatrix.from_dict(client.result(jid))
    local = MatrixRunner(attacks=ATTACKS, defenses=DEFENSES).run()
    assert remote.to_dict() == local.to_dict()


def test_client_requires_an_address_or_state_dir():
    with pytest.raises(ValueError, match="state_dir"):
        ServiceClient()


def test_client_reports_missing_endpoint(tmp_path):
    client = ServiceClient(state_dir=tmp_path)
    with pytest.raises(ServiceError, match="no running service"):
        client.ping()
