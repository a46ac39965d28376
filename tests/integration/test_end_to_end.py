"""Full-system integration: the paper's claims exercised end-to-end,
crossing every substrate at once."""

from types import SimpleNamespace

import pytest

from repro.core.attacks.aes_cache import AESCacheAttack
from repro.core.attacks.port_contention import PortContentionAttack
from repro.core.recipes import ReplayAction, ReplayDecision, WalkLocation, WalkTuning
from repro.core.replayer import AttackEnvironment, Replayer
from repro.crypto.aes import encrypt_block
from repro.isa.assembler import assemble
from repro.sgx.attestation import RunOnceGuard
from repro.victims.control_flow import setup_control_flow_victim


def test_single_logical_run_invariant():
    """The central claim: the attack gathers many traces from ONE
    architectural run.  The run-once guard admits the victim once, the
    victim's architectural side effects happen once, yet the attacker
    observes many replays."""
    guard = RunOnceGuard()
    guard.begin_run("victim-input-1")  # would reject a second run

    rep = Replayer(AttackEnvironment.build())
    victim_proc = rep.create_victim_process()
    victim = setup_control_flow_victim(victim_proc, secret=1)

    recipe = rep.module.provide_replay_handle(
        victim_proc, victim.handle_va + 0x20,
        attack_function=lambda e: ReplayDecision(
            ReplayAction.RELEASE if e.replay_no >= 12
            else ReplayAction.REPLAY))
    rep.launch_victim(victim_proc, victim.program)
    rep.arm(recipe)
    rep.run_until_victim_done()

    assert recipe.replays == 12
    # Architectural effect happened exactly once despite 12 replays.
    assert victim_proc.read(victim.handle_va + 0x20) == 1
    with pytest.raises(PermissionError):
        guard.begin_run("victim-input-1")


def test_assembled_victim_attackable():
    """A victim written in assembler text goes through the whole
    stack: assemble -> enclave -> replay -> extract."""
    rep = Replayer(AttackEnvironment.build())
    process = rep.create_victim_process()
    handle = process.alloc(4096, "handle")
    table = process.alloc(4096, "table")
    secret_line = 11
    process.write(process.enclave.private_base, secret_line)
    source = f"""
        li   r1, {handle}
        li   r2, {process.enclave.private_base}
        li   r3, {table}
        load r4, [r1]          ; replay handle
        load r5, [r2]          ; secret line index
        li   r6, 64
        mul  r7, r5, r6
        add  r7, r7, r3
        load r8, [r7]          ; transmit
        halt
    """
    program = assemble(source, name="asm-victim")
    probe_addrs = [table + i * 64 for i in range(16)]
    hits = []

    def attack_fn(event):
        latencies = rep.module.probe_lines(process, probe_addrs)
        hits.append([i for i, lat in enumerate(latencies) if lat <= 20])
        cost = rep.module.prime_lines(process, probe_addrs)
        action = (ReplayAction.RELEASE if event.replay_no >= 3
                  else ReplayAction.REPLAY)
        return ReplayDecision(action, extra_cost=cost)

    recipe = rep.module.provide_replay_handle(
        process, handle, attack_function=attack_fn)
    rep.launch_victim(process, program)
    rep.module.prime_lines(process, probe_addrs)
    rep.arm(recipe)
    rep.run_until_victim_done()
    assert all(h == [secret_line] for h in hits[1:])


def test_aes192_and_256_extraction():
    """The stepper generalises beyond AES-128: more rounds, same
    noise-free extraction."""
    for key_len in (24, 32):
        key = bytes(range(key_len))
        ciphertext = encrypt_block(key, b"sixteen byte msg")
        attack = AESCacheAttack(key, ciphertext)
        result = attack.run_full_extraction()
        assert result.plaintext_ok
        assert result.union_recall() == 1.0


def test_attack_respects_enclave_isolation():
    """The attack never reads enclave memory directly: the SGX access
    guard would raise."""
    from repro.sgx.enclave import EnclaveProtectionError
    rep = Replayer(AttackEnvironment.build())
    process = rep.create_victim_process()
    enclave = process.enclave
    with pytest.raises(EnclaveProtectionError):
        rep.sgx.supervisor_read(process, enclave.private_base)


def test_port_contention_attack_inside_enclave_with_flush():
    """Even with the branch predictor flushed at the enclave boundary
    (the [12] countermeasure), the port channel reads the secret —
    the paper's motivating scenario for §4.3."""
    attack = PortContentionAttack(measurements=600)
    threshold = attack.calibrate(samples=300)
    result = attack.run(secret=1, threshold=threshold)
    assert result.correct


def test_walk_window_scales_with_tuning():
    """Longer walks -> more speculative instructions per replay."""
    from repro.isa.instructions import Opcode

    def divs_per_replay(leaf):
        rep = Replayer(AttackEnvironment.build())
        process = rep.create_victim_process()
        victim = setup_control_flow_victim(process, secret=1,
                                           divisions=2)
        count = [0]

        def hook(core, context, entry):
            if context.context_id == 0 \
                    and entry.instr.op is Opcode.FDIV:
                count[0] += 1

        rep.machine.attach(SimpleNamespace(on_issue=hook))
        recipe = rep.module.provide_replay_handle(
            process, victim.handle_va + 0x20,
            attack_function=lambda e: ReplayDecision(
                ReplayAction.RELEASE if e.replay_no >= 6
                else ReplayAction.REPLAY),
            walk_tuning=WalkTuning(upper=WalkLocation.PWC, leaf=leaf))
        rep.launch_victim(process, victim.program)
        rep.arm(recipe)
        rep.run_until_victim_done()
        return count[0]

    short = divs_per_replay(WalkLocation.L1)
    long = divs_per_replay(WalkLocation.DRAM)
    # The victim's divs sit ~15 cycles past the handle (after a
    # mispredicted branch resolves): an 11-cycle walk cannot reach
    # them, a DRAM walk replays them every time.
    assert long >= 6
    assert short < long
