"""Unit behavior of the oracle plumbing: config coercion, the bounded
event summary, activation scoping, machine attachment idempotence and
the ``FaultPolicy.verify`` cross-check."""

import pytest

from repro.cpu.machine import Machine
from repro.oracle import (
    EVENT_KINDS,
    LeakageEvent,
    LeakageSummary,
    OracleConfig,
    TaintOracle,
    activate,
    attach_machine,
    current,
    oracle_consistency_verify,
)
from repro.oracle.tracker import _coerce_config


# --- config coercion -------------------------------------------------------


@pytest.mark.parametrize("value", [None, False])
def test_coerce_off(value):
    assert _coerce_config(value) is None


def test_coerce_defaults_and_passthrough():
    assert _coerce_config(True) == OracleConfig()
    config = OracleConfig(seed_secrets=False, max_samples=4)
    assert _coerce_config(config) is config
    assert _coerce_config(config.to_dict()) == config


def test_coerce_rejects_junk():
    with pytest.raises(TypeError):
        _coerce_config("yes please")


def test_config_round_trips():
    config = OracleConfig(seed_secrets=False, max_samples=7)
    assert OracleConfig.from_dict(config.to_dict()) == config


# --- summary ---------------------------------------------------------------


def _event(kind="cache-touch", cycle=1):
    return LeakageEvent(kind=kind, cycle=cycle, context_id=0, index=3,
                        op="load", reasons=("data",),
                        detail={"set": 5})


def test_summary_counts_and_verdict():
    summary = LeakageSummary(max_samples=2)
    assert summary.verdict == "clean"
    for kind in ("cache-touch", "cache-touch", "port-issue"):
        summary.record(_event(kind))
    assert summary.verdict == "leaks"
    assert summary.total == 3
    payload = summary.to_dict()
    assert payload["events"] == 3
    assert payload["counts"] == {"cache-touch": 2, "port-issue": 1}
    # Counts stay exact past the sample cap; samples stop at it.
    assert len(payload["samples"]) == 2


def test_event_kinds_are_canonical():
    assert len(set(EVENT_KINDS)) == len(EVENT_KINDS)
    assert _event().to_dict()["kind"] in EVENT_KINDS


# --- activation scoping ----------------------------------------------------


def test_activate_nests_and_restores():
    assert current() is None
    outer, inner = TaintOracle(), TaintOracle()
    with activate(outer):
        assert current() is outer
        with activate(inner):
            assert current() is inner
        assert current() is outer
    assert current() is None


def test_secret_seeding_respects_config():
    oracle = TaintOracle(OracleConfig(seed_secrets=False))
    oracle.add_secret_region(None, 0x1000, 8)
    assert not oracle.regions
    seeded = TaintOracle()
    seeded.add_secret_region(None, 0x1000, 8)
    assert seeded.regions == [(-1, 0x1000, 0x1008)]


# --- machine attachment ----------------------------------------------------


def test_attach_machine_is_idempotent():
    machine = Machine()
    hooks_before = (len(machine.core._on_decode),
                    len(machine.core._on_issue),
                    len(machine.core._on_retire),
                    len(machine.hierarchy._on_mem_access))
    attach_machine(machine)
    attach_machine(machine)
    assert len(machine.core._on_decode) == hooks_before[0] + 1
    assert len(machine.core._on_issue) == hooks_before[1] + 1
    assert len(machine.core._on_retire) == hooks_before[2] + 1
    assert len(machine.hierarchy._on_mem_access) == hooks_before[3] + 1
    (hub,) = machine.observers
    assert machine.core._on_squash == (hub.on_squash,)
    assert machine.hierarchy._on_mem_access == (hub.on_mem_access,)


# --- FaultPolicy.verify hook -----------------------------------------------


def _cell(verdict, accuracy, chance=0.5, error=None):
    return {"accuracy": accuracy, "chance": chance, "error": error,
            "detail": {"oracle": {"verdict": verdict, "events": 0}}}


def test_verify_rejects_clean_oracle_with_statistical_leak():
    assert not oracle_consistency_verify(_cell("clean", 1.0))


def test_verify_accepts_consistent_cells():
    assert oracle_consistency_verify(_cell("clean", 0.52))
    assert oracle_consistency_verify(_cell("leaks", 1.0))
    assert oracle_consistency_verify(_cell("leaks", 0.5))


def test_verify_ignores_foreign_payloads():
    assert oracle_consistency_verify(None)
    assert oracle_consistency_verify(41)
    assert oracle_consistency_verify({"accuracy": 1.0})
    assert oracle_consistency_verify(_cell("clean", None))
