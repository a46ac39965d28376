"""default_workers must size pools to the CPUs the process may
actually use (cgroup cpusets, CI runners), not the host's total."""

import os

from repro.harness import default_workers


def test_env_override_wins(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert default_workers() == 3


def test_env_override_clamped_to_one(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "0")
    assert default_workers() == 1


def test_bad_env_falls_through(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "lots")
    assert default_workers() >= 1


def test_respects_sched_getaffinity(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: {0, 3, 5}, raising=False)
    assert default_workers() == 3


def test_affinity_beats_cpu_count(monkeypatch):
    """The cgroup-restricted set wins even when the host has more."""
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert default_workers() == 1


def test_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    assert default_workers() == 7


def test_affinity_oserror_falls_back(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)

    def boom(pid):
        raise OSError("no affinity syscall here")

    monkeypatch.setattr(os, "sched_getaffinity", boom, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert default_workers() == 5
