"""Section 8 countermeasures behave as the paper describes."""

from types import SimpleNamespace

from repro.evaluation.defenses.dejavu import evaluate_dejavu
from repro.evaluation.defenses.fences import evaluate_fence_on_flush
from repro.evaluation.defenses.pf_oblivious import (
    evaluate_pf_obliviousness,
    page_trace,
    setup_oblivious_cf_victim,
)
from repro.evaluation.defenses.tsgx import TSGX_THRESHOLD, evaluate_tsgx, wrap_with_tsgx
from repro.victims.control_flow import setup_control_flow_victim
from tests.conftest import run_program


def test_fence_on_flush_blocks_replayed_leak():
    report = evaluate_fence_on_flush(replays=8)
    assert report.transmit_issues_undefended >= 8
    assert report.leakage_blocked
    assert report.transmit_issues_defended \
        < report.transmit_issues_undefended // 2


def test_tsgx_gives_n_minus_1_replays():
    report = evaluate_tsgx()
    assert report.threshold == TSGX_THRESHOLD
    assert report.victim_terminated          # fail-stop defense fired
    assert report.os_faults_seen == 0        # faults suppressed by TSX
    assert report.matches_paper              # but N-1 windows leaked


def test_tsgx_wrapped_program_still_computes(system):
    """Without an attacker, the T-SGX transformation is transparent."""
    machine, kernel = system
    process = kernel.create_process("v")
    victim = setup_control_flow_victim(process, secret=1)
    wrapped = wrap_with_tsgx(victim.program, process)
    context = run_program(machine, kernel, wrapped, process=process,
                          max_cycles=500_000)
    assert process.read(victim.handle_va + 0x20) == 1
    assert context.stats.txn_aborts == 0


def test_dejavu_detects_many_replays():
    report = evaluate_dejavu(replays=50)
    assert report.detected


def test_dejavu_masking_with_few_replays():
    """The §8 masking argument: a handful of replays hides under a
    budget sized for legitimate demand-paging faults."""
    report = evaluate_dejavu(replays=2)
    assert not report.detected
    assert report.elapsed_ticks > 0


def test_pf_obliviousness_defeats_page_channel_helps_microscope(kernel):
    process = kernel.create_process("p")
    report = evaluate_pf_obliviousness(process)
    assert report.defeats_controlled_channel
    assert report.helps_microscope
    assert report.oblivious_memory_ops > report.plain_memory_ops


def test_page_trace_static_walker(kernel):
    process = kernel.create_process("p")
    victim = setup_oblivious_cf_victim(process, secret=0)
    plain0 = page_trace(victim.plain, 0)
    plain1 = page_trace(victim.plain, 1)
    assert plain0 != plain1
    obliv0 = page_trace(victim.oblivious, 0)
    obliv1 = page_trace(victim.oblivious, 1)
    assert obliv0 == obliv1


def test_oblivious_victim_still_computes(system):
    machine, kernel = system
    process = kernel.create_process("p")
    victim = setup_oblivious_cf_victim(process, secret=1)
    run_program(machine, kernel, victim.oblivious, process=process)


def test_fence_first_window_still_leaks():
    """The paper's corner case: the fence applies only after a flush,
    so a straight-line victim's FIRST speculative window (before any
    squash has happened) still executes and leaks once."""
    from repro.core.recipes import ReplayAction, ReplayDecision
    from repro.core.replayer import AttackEnvironment, Replayer
    from repro.evaluation.defenses import fences_machine
    from repro.isa.instructions import Opcode
    from repro.isa.program import ProgramBuilder

    rep = Replayer(AttackEnvironment.build(
        machine_config=fences_machine()))
    process = rep.create_victim_process("v", enclave=False)
    data = process.alloc(4096, "d")
    # Straight-line victim: no branch, so no mispredict flush precedes
    # the first window.
    program = (ProgramBuilder()
               .li("r1", data)
               .fli("f0", 8.0).fli("f1", 2.0)
               .load("r2", "r1", 0)
               .fdiv("f2", "f0", "f1")
               .fdiv("f3", "f0", "f1")
               .halt().build())
    issues = []

    def hook(core, context, entry):
        if entry.instr.op is Opcode.FDIV:
            issues.append(rep.machine.cycle)

    rep.machine.attach(SimpleNamespace(on_issue=hook))
    recipe = rep.module.provide_replay_handle(
        process, data,
        attack_function=lambda e: ReplayDecision(
            ReplayAction.RELEASE if e.replay_no >= 6
            else ReplayAction.REPLAY))
    rep.launch_victim(process, program)
    rep.arm(recipe)
    rep.run_until_victim_done()
    # 2 leaks in window 1 + 2 architectural at the end; the 5 replayed
    # windows after the first flush leak nothing.
    assert len(issues) == 4
