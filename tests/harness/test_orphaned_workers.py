"""A pool worker does not outlive its supervisor.

Service jobs run without a watchdog ``timeout``, so a hung trial in a
worker whose supervisor was SIGKILLed would otherwise run forever."""

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="the pool forks its workers")

_SUPERVISOR = textwrap.dedent("""
    import os, signal, sys, threading, time
    from pathlib import Path
    from repro.harness import run_resilient_sweep
    from repro.harness.resilience import FaultPolicy

    def hang(params, seed):
        Path(params).write_text(str(os.getpid()))
        time.sleep(60)

    pidfiles = [Path(sys.argv[1]) / f"worker{i}.pid" for i in range(2)]

    def die_once_workers_run():
        while not all(path.exists() and path.read_text()
                      for path in pidfiles):
            time.sleep(0.05)
        os.kill(os.getpid(), signal.SIGKILL)

    threading.Thread(target=die_once_workers_run, daemon=True).start()
    run_resilient_sweep(hang, [str(path) for path in pidfiles],
                        workers=2, policy=FaultPolicy(max_attempts=1))
""")


def _alive(pid):
    """True while *pid* runs; an exited, not yet reaped process (a
    zombie) counts as gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    except OSError:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_workers_exit_when_the_supervisor_is_killed(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    proc = subprocess.run([sys.executable, "-c", _SUPERVISOR,
                           str(tmp_path)], env=env, timeout=60)
    assert proc.returncode == -signal.SIGKILL
    pids = [int((tmp_path / f"worker{i}.pid").read_text())
            for i in range(2)]
    try:
        deadline = time.monotonic() + 10
        while any(_alive(pid) for pid in pids) \
                and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(_alive(pid) for pid in pids)
    finally:
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
