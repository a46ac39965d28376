"""state_digest is a pure function of a snapshot's logical state: it
does not follow live platform objects, agrees across independent
builds, and still sees through to victim data."""

from repro.core.replayer import AttackEnvironment, Replayer
from repro.snapshot import MachineSnapshot, state_digest
from repro.victims.control_flow import setup_control_flow_victim


def _enclave_victim(secret=1):
    rep = Replayer(AttackEnvironment.build())
    proc = rep.create_victim_process("victim")
    victim = setup_control_flow_victim(proc, secret=secret)
    rep.launch_victim(proc, victim.program)
    return rep


def test_digest_is_unchanged_when_the_machine_runs_on():
    """The kernel shares Process objects with the snapshot and the
    enclave holds the live Kernel; neither may leak into the digest."""
    rep = _enclave_victim()
    snapshot = MachineSnapshot.take(rep.env)
    before = state_digest(snapshot)
    rep.machine.run(2000)
    assert rep.machine.cycle > 0
    assert state_digest(snapshot) == before


def test_independent_identical_builds_digest_equal():
    first = MachineSnapshot.take(_enclave_victim().env)
    second = MachineSnapshot.take(_enclave_victim().env)
    assert state_digest(first) == state_digest(second)


def test_victim_secret_changes_the_digest():
    zero = MachineSnapshot.take(_enclave_victim(secret=0).env)
    one = MachineSnapshot.take(_enclave_victim(secret=1).env)
    assert state_digest(zero) != state_digest(one)
