"""CI crash-recovery smoke check for the experiment job service.

The service's headline guarantee: kill the server at any instant,
restart it on the same state directory, and the job completes with
**zero recomputed cells** and a **byte-identical** ``result.json``.
This script enforces exactly that, end to end, against real server
processes:

1. boot ``python -m repro serve`` on a fresh state dir, submit a
   2×2 matrix job, and SIGKILL the server the moment the first cell
   lands in the journal (genuinely mid-run).  The server leads its
   own process group; every member of it (the pool workers included)
   must be gone within a fixed bound of the kill;
2. restart the server on the same state dir; boot recovery must
   re-enqueue the job and run it to completion;
3. assert from the journal that every cell was journalled exactly
   once (a rerun would append a second record for the same index) and
   from ``metrics.json`` that the resumed run executed exactly
   ``total - prekill`` cells — the pre-kill cells resolved as
   ``journal``, not ``ok``;
4. run the same spec uninterrupted on a second, completely separate
   state dir (own trial store) and require the two ``result.json``
   files to be byte-identical.

The kill is timing-sensitive (the job must not finish before the
signal lands), so the scenario retries a few times; a job that
completed pre-kill is a skipped round, not a failure.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

ATTACKS = ("cf-cache", "loop-secret")
DEFENSES = ("none", "fences")

#: Seconds the killed server's process group may take to drain: a pool
#: worker finishes its in-flight cell and exits.
GROUP_DRAIN_BOUND = 30.0


def log(message: str) -> None:
    print(f"[service-smoke] {message}", flush=True)


def start_server(state_dir: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # A killed server leaves its endpoint file behind; drop it so we
    # wait for the *new* process's binding, not the ghost's.
    try:
        (state_dir / "endpoint.json").unlink()
    except OSError:
        pass
    # A session of its own makes the server the leader of a fresh
    # process group, which its pool workers join: after a SIGKILL the
    # group must drain (see wait_group_empty).
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--state-dir", str(state_dir)],
        env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.STDOUT, start_new_session=True)
    deadline = time.monotonic() + 30
    endpoint = state_dir / "endpoint.json"
    while time.monotonic() < deadline:
        if endpoint.exists() and process.poll() is None:
            return process
        if process.poll() is not None:
            raise RuntimeError(
                f"server exited {process.returncode} before binding")
        time.sleep(0.05)
    process.kill()
    raise RuntimeError("server never wrote endpoint.json")


def wait_group_empty(pgid: int, bound: float = GROUP_DRAIN_BOUND) -> float:
    """Wait until no process is left in group *pgid*; return how long
    that took.  Pool workers must not outlive a killed server."""
    t0 = time.monotonic()
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return time.monotonic() - t0
        if time.monotonic() - t0 > bound:
            os.killpg(pgid, signal.SIGKILL)  # don't leak them past CI
            raise AssertionError(
                f"process group {pgid} still has members {bound}s "
                f"after the server was killed")
        time.sleep(0.05)


def journal_indices(journal: Path):
    indices = []
    for line in journal.read_text().splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if record.get("kind") == "trial":
            indices.append(record["index"])
    return indices


def run_uninterrupted(spec) -> bytes:
    """The reference: same spec, fresh state dir, no kill."""
    from repro.service import ServiceClient, job_id
    with tempfile.TemporaryDirectory(prefix="svc-ref-") as ref:
        state = Path(ref) / "state"
        server = start_server(state)
        try:
            client = ServiceClient(state_dir=state)
            submitted = client.submit(spec)
            status = client.wait(submitted["job"], timeout=120)
            assert status["state"] == "done", status
            result = (state / "jobs" / job_id(spec)
                      / "result.json").read_bytes()
        finally:
            server.kill()
            server.wait(timeout=10)
    return result


def interrupted_round(spec, state: Path):
    """One kill-and-recover attempt.  Returns the pre-kill journalled
    cell count, or None when the job won the race and finished."""
    from repro.service import ServiceClient, job_id
    jid = job_id(spec)
    journal = state / "jobs" / jid / "journal.jsonl"
    server = start_server(state)
    try:
        client = ServiceClient(state_dir=state)
        submitted = client.submit(spec)
        assert submitted["job"] == jid, (submitted, jid)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            done = len(journal_indices(journal)) \
                if journal.exists() else 0
            if done:
                break
            time.sleep(0.002)
    finally:
        # SIGKILL: no cleanup, no journal flush courtesy — the
        # crash-recovery contract must not depend on a tidy exit.
        server.send_signal(signal.SIGKILL)
        server.wait(timeout=10)
    drained = wait_group_empty(server.pid)
    prekill = journal_indices(journal)
    total = len(ATTACKS) * len(DEFENSES)
    if len(prekill) >= total:
        return None  # finished before the kill landed; retry
    log(f"killed server with {len(prekill)}/{total} cells journalled; "
        f"its process group drained in {drained:.2f}s")
    return len(prekill)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=5,
                        help="kill-timing attempts before giving up")
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    from repro.service import JobSpec, ServiceClient, job_id

    spec = JobSpec(attacks=ATTACKS, defenses=DEFENSES, workers=2)
    jid = job_id(spec)
    total = len(ATTACKS) * len(DEFENSES)

    prekill = None
    for attempt in range(args.rounds):
        with tempfile.TemporaryDirectory(prefix="svc-smoke-") as tmp:
            state = Path(tmp) / "state"
            prekill = interrupted_round(spec, state)
            if prekill is None:
                log(f"round {attempt}: job finished before the kill; "
                    f"retrying")
                continue

            # --- restart on the same state dir ----------------------
            server = start_server(state)
            try:
                client = ServiceClient(state_dir=state)
                status = client.wait(jid, timeout=120)
                assert status["state"] == "done", status
                job_dir = state / "jobs" / jid
                result = (job_dir / "result.json").read_bytes()
                indices = journal_indices(job_dir / "journal.jsonl")
                metrics = json.loads(
                    (job_dir / "metrics.json").read_text())
            finally:
                server.kill()
                server.wait(timeout=10)

            # Zero reruns, part 1: every cell journalled exactly once.
            assert sorted(indices) == list(range(total)), (
                f"journal must hold each cell exactly once, "
                f"got indices {sorted(indices)}")
            # Zero reruns, part 2: the resumed run executed only the
            # missing cells; pre-kill cells resolved as journal.
            resolutions = metrics["report"]["resolutions"]
            executed = resolutions["ok"] + resolutions["cached"]
            assert executed == total - prekill, (
                f"resumed run executed {executed} cells, expected "
                f"{total - prekill} (prekill={prekill})")
            log(f"resume executed {executed} cells "
                f"({prekill} served from the journal)")

            # Byte-identical to an uninterrupted run.
            reference = run_uninterrupted(spec)
            assert result == reference, (
                "interrupted-and-resumed result.json differs from "
                "the uninterrupted run")
            log(f"result.json byte-identical across kill/restart "
                f"({len(result)} bytes)")
            log("OK")
            return 0

    log(f"could not land a mid-run kill in {args.rounds} rounds")
    return 1


if __name__ == "__main__":
    sys.exit(main())
