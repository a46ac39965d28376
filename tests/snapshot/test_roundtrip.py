"""Full-platform round-trips: checkpoint/rewind on a wired attack
environment (machine + kernel + SGX + MicroScope module), the
warm-start cache, and snapshot error handling."""

import pytest

from repro.core.replayer import AttackEnvironment, Replayer
from repro.cpu.machine import Machine
from repro.isa.program import ProgramBuilder
from repro.reporting import metrics_payload
from repro.snapshot import (
    MachineSnapshot,
    SnapshotError,
    cache_size,
    clear_cache,
    warm_start,
)
from repro.victims.control_flow import setup_control_flow_victim


def _platform_report(rep: Replayer) -> dict:
    return metrics_payload(rep.machine)


def test_replayer_checkpoint_rewind_full_platform():
    """An enclave victim run exercises demand paging, SGX entry and
    kernel accounting; rewinding must reproduce the run exactly."""
    rep = Replayer(AttackEnvironment.build())
    proc = rep.create_victim_process("victim")
    victim = setup_control_flow_victim(proc, 1)
    rep.launch_victim(proc, victim.program)
    rep.checkpoint()
    rep.run_until_victim_done(context_id=0)
    first = _platform_report(rep)
    assert first["metrics"]["cpu.ctx0.retired"] > 0   # the run did real work
    rep.rewind()
    rep.run_until_victim_done(context_id=0)
    assert _platform_report(rep) == first


def test_rewind_can_retarget_the_secret():
    """Rewind + rewrite of the secret word equals a fresh build with
    that secret — the warm-start contract of the Fig. 10 driver."""
    def run_once(rep, proc, victim):
        rep.run_until_victim_done(context_id=0)
        return _platform_report(rep), proc.read(victim.operand_va)

    cold = Replayer(AttackEnvironment.build())
    cold_proc = cold.create_victim_process("victim")
    cold_victim = setup_control_flow_victim(cold_proc, 0)
    cold.launch_victim(cold_proc, cold_victim.program)
    expected = run_once(cold, cold_proc, cold_victim)

    rep = Replayer(AttackEnvironment.build())
    proc = rep.create_victim_process("victim")
    victim = setup_control_flow_victim(proc, 1)
    rep.launch_victim(proc, victim.program)
    rep.checkpoint()
    rep.run_until_victim_done(context_id=0)
    rep.rewind()
    victim.write_secret(proc, 0)
    assert run_once(rep, proc, victim) == expected


def test_rewind_without_checkpoint_raises():
    rep = Replayer(AttackEnvironment.build())
    with pytest.raises(RuntimeError):
        rep.rewind()


def test_warm_start_builds_once_then_restores():
    clear_cache()
    builds = []

    def builder():
        builds.append(1)
        return Machine(), "payload"

    env1, payload1 = warm_start("roundtrip-key", builder)
    env1.phys.write(0x10_0000, 0xBEEF)
    env2, payload2 = warm_start("roundtrip-key", builder)
    assert env2 is env1
    assert payload2 == "payload"
    assert builds == [1]
    assert cache_size() == 1
    assert env2.phys.read(0x10_0000) == 0   # rewound on the hit
    clear_cache()
    assert cache_size() == 0


def _smt_pair():
    """A divide loop beside an ALU/load loop: several ports issue in
    the same cycle, and the sibling contends for the divider."""
    divides = (ProgramBuilder()
               .li("r1", 0).li("r2", 60).li("r3", 91).li("r4", 7)
               .label("loop")
               .div("r5", "r3", "r4")
               .addi("r1", "r1", 1)
               .bne("r1", "r2", "loop")
               .halt().build())
    mixed = (ProgramBuilder()
             .li("r1", 0).li("r2", 60).li("r6", 0x10_0000)
             .label("loop")
             .addi("r3", "r1", 1).addi("r4", "r1", 2)
             .xori("r5", "r1", 3).load("r7", "r6", 0)
             .load("r8", "r6", 64).div("r9", "r2", "r2")
             .addi("r1", "r1", 1)
             .bne("r1", "r2", "loop")
             .halt().build())
    machine = Machine()
    machine.contexts[0].load_program(divides)
    machine.contexts[1].load_program(mixed)
    return machine


def test_snapshot_between_steps_after_a_multi_port_issue():
    """A snapshot taken right after a step() that issued on several
    ports (each still marked as issued this cycle) resumes, in a fresh
    machine, exactly like the uninterrupted run."""
    straight = _smt_pair()
    straight.run(200_000)

    machine = _smt_pair()
    ports = machine.core.ports.ports
    while True:
        before = [port.stats.issued for port in ports]
        machine.core.step()
        issued = sum(port.stats.issued > count
                     for port, count in zip(ports, before))
        if machine.cycle >= 50 and issued >= 3:
            break
    snapshot = MachineSnapshot.take(machine)

    resumed = Machine()
    snapshot.restore(resumed)
    resumed.run(200_000)
    assert all(ctx.finished() for ctx in resumed.contexts)
    assert resumed.cycle == straight.cycle
    assert ([port.stats.issued for port in resumed.core.ports.ports]
            == [port.stats.issued for port in straight.core.ports.ports])
    assert metrics_payload(resumed) == metrics_payload(straight)


def test_version_mismatch_raises():
    machine = Machine()
    snapshot = MachineSnapshot.take(machine)
    snapshot.version = 999
    with pytest.raises(SnapshotError):
        snapshot.restore(machine)


def test_restore_onto_bare_machine_rejects_platform_snapshot():
    env = AttackEnvironment.build()
    snapshot = MachineSnapshot.take(env)
    with pytest.raises(SnapshotError):
        snapshot.restore(Machine())
