"""Differential testing for the quiescence fast-forward in ``Machine.run``.

``Machine.run`` jumps the clock over cycles in which no context can
fetch, dispatch, complete, or retire — exactly the cycles a MicroScope
victim spends stalled behind a tuned page walk or kernel fault
handling.  The jump claims *bit-exactness*: the same final cycle
count, architectural state, and every statistics counter as stepping
the core once per cycle.  These tests hold it to that claim against
``_naive_run``, a test-local driver that calls ``core.step()`` while
``core.busy()`` with the same *until*/limit semantics, on these
workload shapes:

* Hypothesis-generated random programs (single context and 2-context
  SMT), the same generator family as tests/cpu/test_differential.py;
* the replay-attack workload itself — a control-flow victim replayed
  behind a non-present page, where fast-forward does nearly all the
  work;
* one ciphertext of the §4.4 AES key recovery and a small Fig. 10
  port-contention panel, run through the attacks' own code;
* the same panel under each gating defense (Jamais Vu, Delay-on-Squash,
  LEASH), whose counters and state must match, and under a
  cycle-dependent gate, whose ``(cycle, context, seq)`` call log must;
* unit cases for the quiescence probe (``Core.next_work``), its
  held-entry rules (divider, fence, gate, load), the jump clamp, and
  jumps over divider-held and fence-held cycles, which must change
  nothing in the machine's capture but the core's cycle;
* a Fig. 7-shaped monitor beside a divider hog, whose ROB fills behind
  an in-flight fence while its divides wait on the divider: the
  cycles in which only fetch can act run as front-end-only cycles
  (``Core.front_end_cycle``), with and without a decode observer;
* front-end-only runs, which go on without a probe, ending each way
  one can: fetch adds an entry that may issue, the ROB fills, an
  ``until`` callback raises an interrupt, and a run under a gate.
  These also compare the event tracer's instruction slices.

Beside cycles and state, each leg compares every counter of the
metrics registry, the ports' ``issued`` counts included.
"""

import heapq
import pickle
from contextlib import contextmanager
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attacks.aes_key_recovery import AESKeyRecoveryAttack
from repro.core.attacks.port_contention import PortContentionAttack
from repro.core.recipes import WalkLocation, WalkTuning, replay_n_times
from repro.core.replayer import AttackEnvironment, Replayer
from repro.cpu.context import ContextState
from repro.cpu.core import Core
from repro.cpu.machine import Machine
from repro.cpu.rob import EntryState
from repro.cpu.traps import TrapAction
from repro.crypto.aes import encrypt_block
from repro.evaluation.defenses import (delay_on_squash_machine,
                                       jamais_vu_machine, leash_machine)
from repro.isa import instructions as ins
from repro.isa.program import ProgramBuilder
from repro.observability import EventTracer
from repro.reporting import metrics_payload
from repro.snapshot import clear_cache
from repro.victims.control_flow import setup_control_flow_victim
from repro.victims.monitor import build_port_contention_monitor

_DATA_REGS = [f"r{i}" for i in range(2, 10)]
_OFFSETS = [0, 8, 16, 64]
DATA_BASE = 0x0010_0000


def _naive_run(machine, max_cycles=1_000_000, until=None):
    """The reference scheduler: one ``core.step()`` per cycle while any
    context is busy, stopping on *until* or the cycle budget exactly
    as :meth:`Machine.run` does."""
    core = machine.core
    start = core.cycle
    limit = start + max_cycles
    while core.cycle < limit:
        if until is not None and until(machine):
            break
        if not core.busy():
            break
        core.step()
    return core.cycle - start


def _snapshot(machine: Machine):
    """Architectural state, the cycle count and every counter
    (``metrics_payload``) and the defense's state."""
    regs = [(dict(ctx.int_regs), dict(ctx.fp_regs))
            for ctx in machine.contexts]
    defense = machine.defense
    return (regs, metrics_payload(machine),
            defense.capture() if defense is not None else None)


@contextmanager
def _driver(run, attach=None):
    """Route every ``Machine.run`` (and so ``run_until_cycle`` and the
    Replayer's run helpers) through *run*; yields the list of machines
    it ran, in first-run order.  *attach*, if given, is called with
    each machine before its first run."""
    machines = []
    original = Machine.run

    def recording(machine, *args, **kwargs):
        if machine not in machines:
            machines.append(machine)
            if attach is not None:
                attach(machine)
        return run(machine, *args, **kwargs)

    Machine.run = recording
    try:
        yield machines
    finally:
        Machine.run = original


def _under_both_drivers(workload, attach=None):
    """``workload()``'s result and the final state of every machine it
    ran, first under ``Machine.run``, then under ``_naive_run``.  The
    warm-start cache is emptied before each leg so neither reuses a
    platform the other built.  *attach* is passed to :func:`_driver`."""
    legs = []
    for run in (Machine.run, _naive_run):
        clear_cache()
        with _driver(run, attach) as machines:
            result = workload()
        legs.append((result, [_snapshot(m) for m in machines]))
    clear_cache()
    return legs


@st.composite
def _block(draw, max_len=10):
    """Straight-line block biased toward long-latency producers
    (div, loads) so the pipeline actually drains mid-program."""
    instrs = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_len))):
        kind = draw(st.sampled_from(
            ["alu", "alui", "mul", "div", "div", "load", "load",
             "store"]))
        rd = draw(st.sampled_from(_DATA_REGS))
        rs1 = draw(st.sampled_from(_DATA_REGS))
        rs2 = draw(st.sampled_from(_DATA_REGS))
        offset = draw(st.sampled_from(_OFFSETS))
        if kind == "alu":
            ctor = draw(st.sampled_from([ins.add, ins.sub, ins.xor]))
            instrs.append(ctor(rd, rs1, rs2))
        elif kind == "alui":
            instrs.append(ins.addi(rd, rs1,
                                   draw(st.integers(0, 1 << 12))))
        elif kind == "mul":
            instrs.append(ins.mul(rd, rs1, rs2))
        elif kind == "div":
            instrs.append(ins.div(rd, rs1, rs2))
        elif kind == "load":
            instrs.append(ins.load(rd, "r1", offset))
        else:
            instrs.append(ins.store("r1", rs1, offset))
    return instrs


@st.composite
def _random_program(draw):
    builder = ProgramBuilder("ff-differential")
    builder.li("r1", DATA_BASE)
    for reg in _DATA_REGS:
        builder.li(reg, draw(st.integers(0, 1 << 20)))
    builder.li("r0", draw(st.integers(min_value=1, max_value=4)))
    builder.label("loop")
    for instr in draw(_block()):
        builder.emit(instr)
    builder.subi("r0", "r0", 1)
    builder.li("r13", 0)
    builder.bne("r0", "r13", "loop")
    builder.halt()
    return builder.build()


def _run_programs(programs):
    machine = Machine()
    for context_id, program in enumerate(programs):
        machine.contexts[context_id].load_program(program)
    ran = machine.run(3_000_000)
    assert all(machine.contexts[i].finished()
               for i in range(len(programs)))
    return ran


@given(_random_program())
@settings(max_examples=40, deadline=None)
def test_fast_forward_matches_naive_single_context(program):
    fast, naive = _under_both_drivers(lambda: _run_programs([program]))
    assert fast == naive


@given(_random_program(), _random_program())
@settings(max_examples=25, deadline=None)
def test_fast_forward_matches_naive_smt(program_a, program_b):
    fast, naive = _under_both_drivers(
        lambda: _run_programs([program_a, program_b]))
    assert fast == naive


def _run_replay_attack(replays: int = 40):
    """The MicroScope shape: victim stalled behind tuned page walks
    and kernel fault handling while the module replays it."""
    rep = Replayer(AttackEnvironment.build())
    victim_proc = rep.create_victim_process("victim")
    victim = setup_control_flow_victim(victim_proc, secret=1,
                                       divisions=2, multiplications=2)
    recipe = rep.module.provide_replay_handle(
        victim_proc, victim.handle_va + 0x20, name="ff-replay",
        attack_function=replay_n_times(replays),
        walk_tuning=WalkTuning(upper=WalkLocation.PWC,
                               leaf=WalkLocation.DRAM),
        max_replays=10 ** 9)
    rep.launch_victim(victim_proc, victim.program)
    rep.arm(recipe)
    rep.run_until_victim_done(context_id=0, max_cycles=20_000_000)
    return recipe.replays, metrics_payload(rep.machine)


def test_fast_forward_matches_naive_on_replay_attack():
    fast, naive = _under_both_drivers(_run_replay_attack)
    assert fast == naive
    assert naive[0][0] >= 40  # the attack really replayed


def test_fast_forward_matches_naive_on_aes_key_recovery_block():
    key = bytes(range(16))
    ciphertext = encrypt_block(key, bytes(range(16, 32)))
    fast, naive = _under_both_drivers(
        lambda: AESKeyRecoveryAttack(key).extract_block(ciphertext))
    assert fast == naive
    attribution, machines = naive
    assert machines and attribution.candidates


def _port_contention_panel(machine=None):
    attack = PortContentionAttack(measurements=40, machine=machine)
    return attack.run(secret=1, threshold=attack.calibrate(200))


def test_fast_forward_matches_naive_on_port_contention_panel():
    fast, naive = _under_both_drivers(_port_contention_panel)
    assert fast == naive
    result, machines = naive
    assert len(machines) == 2  # calibration and attack platforms
    assert len(result.samples) == 40 and result.replays > 0


@pytest.mark.parametrize("config, counter", [
    (jamais_vu_machine("counter"), "defense.jamais_vu.blocked_issues"),
    (delay_on_squash_machine(), "defense.delay_on_squash.delayed_issues"),
    # A short window and a one-issue budget, so the panel throttles.
    (leash_machine(window_cycles=2048, throttle_factor=8),
     "defense.leash.throttled_issues"),
], ids=["jv-counter", "delay-on-squash", "leash"])
def test_fast_forward_matches_naive_under_a_defense_gate(config, counter):
    """The panel under each gating defense: the ``defense.*`` counters
    (in ``metrics.dump()``) and each mechanism's ``capture()``, LEASH's
    detector state included, match naive stepping."""
    fast, naive = _under_both_drivers(
        lambda: _port_contention_panel(config))
    assert fast == naive
    result, snapshots = naive
    assert len(result.samples) == 40
    assert all(defense is not None for *_, defense in snapshots)
    assert sum(payload["metrics"].get(counter, 0)
               for _, payload, _ in snapshots) > 0


def test_fast_forward_matches_naive_under_a_cycle_dependent_gate():
    """A gate that holds divides on every third cycle sees the same
    ``(cycle, context, seq)`` consultations under both drivers."""
    logs = []

    def attach(machine):
        log = []
        logs.append(log)

        def gate(core, context, entry):
            log.append((core.cycle, context.context_id, entry.seq))
            return not (entry.op_cls == "div" and core.cycle % 3 == 0)

        machine.attach(SimpleNamespace(gate=gate))

    fast, naive = _under_both_drivers(_port_contention_panel, attach)
    assert fast == naive
    assert len(logs) == 4  # two machines per leg
    assert logs[:2] == logs[2:]
    assert all(logs)


# --- the quiescence probe -------------------------------------------------

def _halted_machine() -> Machine:
    machine = Machine()
    program = (ProgramBuilder("p").li("r2", 1).halt().build())
    machine.contexts[0].load_program(program)
    machine.run(10_000)
    assert machine.contexts[0].finished()
    return machine


def _block_context(machine: Machine, cycles: int):
    context = machine.contexts[0]
    context.state = ContextState.BLOCKED
    context.blocked_until = machine.cycle + cycles


def test_fast_forward_idle_after_halt():
    """After every context halts (or before any is loaded) no context
    is busy: the probe says stop and ``run`` exits on its own."""
    for machine in (Machine(), _halted_machine()):
        assert not machine.core.busy()
        assert machine.core.next_work()[0] is None
        assert machine.run(1_000) == 0


def test_probe_stops_when_finished_contexts_leave_an_event_due():
    """An event still in the heap keeps no context busy: the probe
    says stop, as ``busy()`` does, and ``run`` never steps into it."""
    machine = _halted_machine()
    core = machine.core
    due = object()  # never touched unless a step processes it
    heapq.heappush(core._events, (core.cycle, -1, due))
    assert not core.busy()
    assert core.next_work()[0] is None
    assert machine.run(1_000) == 0
    assert core._events[0][2] is due


def test_probe_steps_when_work_can_act_now():
    """With a runnable context the core must not skip anything."""
    machine = Machine()
    program = (ProgramBuilder("p").li("r2", 1).halt().build())
    machine.contexts[0].load_program(program)
    assert machine.core.next_work()[0] == machine.cycle
    assert machine.core.fast_forward() == 0


def test_probe_steps_when_nothing_is_known_to_wake_the_core():
    """A busy context with no deadline anywhere: the only exact answer
    is stepping, as naive stepping would."""
    machine = Machine()
    machine.contexts[0].state = ContextState.RUNNING
    assert machine.core.busy()
    assert machine.core.next_work()[0] == machine.cycle


def test_probe_jumps_to_the_earliest_deadline():
    machine = _halted_machine()
    core = machine.core
    _block_context(machine, 500)
    assert core.next_work()[0] == core.cycle + 500
    heapq.heappush(core._events, (core.cycle + 200, -1, object()))
    assert core.next_work()[0] == core.cycle + 200


def test_fast_forward_clamps_to_limit():
    """Jumps never overshoot an explicit cycle target."""
    machine = _halted_machine()
    finish = machine.cycle
    # Block the only context far in the future; the next deadline is
    # beyond the clamp, so fast_forward stops exactly at the clamp.
    _block_context(machine, 1_000_000)
    skipped = machine.core.fast_forward(limit=finish + 100)
    assert skipped == 100
    assert machine.cycle == finish + 100


def test_run_until_cycle_exact_under_fast_forward():
    machine = _halted_machine()
    finish = machine.cycle
    _block_context(machine, 10_000)
    assert machine.run(777) == 777
    assert machine.cycle == finish + 777
    machine.run_until_cycle(finish + 1_000)
    assert machine.cycle == finish + 1_000


# --- held ready entries -----------------------------------------------------

def _divider_held_machine(gate=None) -> Machine:
    """Two independent divides, stepped until the second waits in the
    ready queue while the first holds the non-pipelined divider, with
    nothing left to retire and no event due."""
    machine = Machine()
    if gate is not None:
        machine.attach(SimpleNamespace(gate=gate))
    program = (ProgramBuilder("divides").li("r2", 96).li("r3", 4)
               .div("r4", "r2", "r3").div("r5", "r2", "r3")
               .halt().build())
    context = machine.contexts[0]
    context.load_program(program)
    core = machine.core
    divider = core.ports.port_named("p0")
    for _ in range(100):
        core.step()
        if (core.cycle < divider.busy_until
                and [e.op_cls for e in context.ready] == ["div"]
                and not context.rob.head.completed
                and core._events[0][0] > core.cycle):
            return machine
    raise AssertionError("the second divide never waited on the divider")


def test_probe_skips_a_divide_held_by_the_divider():
    """The held divide cannot issue before the divider frees up, so
    the probe jumps, no further than the divider's release."""
    machine = _divider_held_machine()
    core = machine.core
    target = core.next_work()[0]
    assert core.cycle < target <= core.ports.port_named("p0").busy_until
    core.fast_forward()
    assert core.cycle == target


def test_probe_steps_on_a_held_divide_when_a_gate_is_attached():
    """Dispatch hands the port-held divide to the gate before its port
    search, and a gate may answer differently each cycle and its calls
    are observable, so the probe steps."""
    machine = _divider_held_machine(gate=lambda core, context, e: True)
    core = machine.core
    assert core.cycle < core.ports.port_named("p0").busy_until
    assert core.next_work()[0] == core.cycle


def _fence_held_machine(gate=None) -> Machine:
    """A divide, then a fence and an ``addi`` behind it, stepped until
    both wait in the ready queue while the divide executes, with
    nothing left to fetch or retire and no event due."""
    machine = Machine()
    if gate is not None:
        machine.attach(SimpleNamespace(gate=gate))
    program = (ProgramBuilder("fenced").li("r2", 96).li("r3", 4)
               .div("r4", "r2", "r3").fence().addi("r5", "r2", 1)
               .halt().build())
    context = machine.contexts[0]
    context.load_program(program)
    core = machine.core
    for _ in range(100):
        core.step()
        if (len(context.ready) > 1
                and context.ready[0].seq == context.oldest_fence_seq()
                and not context.rob.head.completed
                and core._events[0][0] > core.cycle):
            return machine
    raise AssertionError("the fence never waited on the divide")


def test_probe_skips_fence_held_entries_when_a_gate_is_attached():
    """Dispatch consults no gate for a fence while an older entry is
    incomplete, nor for anything behind it, so the probe skips those
    cycles with a gate attached too: naive stepping through them makes
    no gate call."""
    calls = []
    machine = _fence_held_machine(
        gate=lambda core, context, entry: calls.append(entry.seq) or True)
    core = machine.core
    target, front_end_only = core.next_work()
    assert target > core.cycle and not front_end_only
    calls.clear()
    while core.cycle < target:
        core.step()
    assert calls == []


def _capture_but_the_cycle(machine: Machine):
    """The core's cycle and the pickled rest of ``machine.capture()``."""
    state = machine.capture()
    core = state[5]
    return core[0], pickle.dumps(state[:5] + (core[1:],) + state[6:])


@pytest.mark.parametrize("build", [_divider_held_machine,
                                   _fence_held_machine],
                         ids=["divider-held", "fence-held"])
def test_a_jump_changes_nothing_but_the_cycle(build):
    """Every skipped cycle is a step that changes nothing: a jump over
    them leaves every counter, every port and all architectural and
    microarchitectural state as it was, and moves only the clock."""
    machine = build()
    cycle, before = _capture_but_the_cycle(machine)
    skipped = machine.core.fast_forward()
    assert skipped > 0
    assert _capture_but_the_cycle(machine) == (cycle + skipped, before)


def test_probe_steps_on_a_fence_whose_older_entries_completed():
    """A fence at the ROB head, with nothing older left in flight,
    issues now even though the next event is far off."""
    machine = Machine()
    program = (ProgramBuilder("fence-first").fence().addi("r2", "r2", 1)
               .halt().build())
    context = machine.contexts[0]
    context.load_program(program)
    core = machine.core
    core.step()  # fetch the whole program
    fence = context.rob.head
    assert fence.seq == context.oldest_fence_seq()
    assert fence.state is EntryState.READY and fence in context.ready
    assert context.rob.all_older_completed(fence.seq)
    heapq.heappush(core._events, (core.cycle + 200, -1, object()))
    assert core.next_work()[0] == core.cycle


def test_probe_steps_on_a_ready_load_even_with_its_ports_held():
    """The probe does not model a load's store-buffer search, so a
    ready load makes it step whatever its ports say."""
    machine = Machine()
    program = ProgramBuilder("load").load("r2", "r1", 0).halt().build()
    context = machine.contexts[0]
    context.load_program(program)
    core = machine.core
    core.step()
    assert [e.op_cls for e in context.ready][0] == "load"
    for name in ("p2", "p3"):
        core.ports.port_named(name).busy_until = core.cycle + 100
    heapq.heappush(core._events, (core.cycle + 200, -1, object()))
    assert core.next_work()[0] == core.cycle


# --- front-end-only cycles --------------------------------------------------

#: ``Core.step`` calls ``Machine.run`` makes on :func:`_fig7_machine`'s
#: run; naive stepping makes one per cycle.  Without front-end-only
#: cycles the same run makes 559.
FIG7_STEPS = 335
#: ``Core.next_work`` probes on the same run: one per step, jump or
#: run of front-end-only cycles.  Probing before every front-end-only
#: cycle and again inside each jump, the same run makes 700.
FIG7_PROBES = 362


def _fig7_machine(*observers) -> Machine:
    """Fig. 7's monitor on context 1 (fence, rdtsc, a burst of FDIVs,
    fence, rdtsc, store per sample) beside a loop of integer divides on
    context 0 that keeps the shared non-pipelined divider held."""
    hog = (ProgramBuilder("divider-hog").li("r2", 96).li("r3", 4)
           .li("r0", 30).li("r13", 0).label("loop")
           .div("r4", "r2", "r3").div("r5", "r2", "r3")
           .subi("r0", "r0", 1).bne("r0", "r13", "loop")
           .halt().build())
    machine = Machine()
    for observer in observers:
        machine.attach(observer)
    machine.contexts[0].load_program(hog)
    machine.contexts[1].load_program(
        build_port_contention_monitor(DATA_BASE, measurements=12,
                                      divs_per_sample=4))
    return machine


def _fig7_state(machine: Machine):
    core = machine.core
    return (machine.cycle,
            [ctx.stats.as_dict() for ctx in machine.contexts],
            core.predictor.stats.as_dict(),
            machine.metrics.dump())


def _can_fetch(context, cycle) -> bool:
    return (context.state is ContextState.RUNNING
            and context.fetch_stall_until <= cycle
            and context.fetch_index < len(context.decoded)
            and len(context.rob.entries) < context.rob.capacity)


@contextmanager
def _scheduler_log():
    """Count ``Core.next_work`` probes, record the cycle of each
    ``Core.fast_forward`` jump, and log each ``Core.front_end_cycle``
    call as ``(cycle, outcome)``: ``"run"`` when the next cycle is
    front-end-only too, otherwise why the run ended: ``"interrupt"``
    (raised before the call, which then stepped), ``"bound"``,
    ``"fetch"`` (no context can fetch next cycle) or ``"entry"`` (an
    entry that fetch added may issue)."""
    log = SimpleNamespace(probes=0, jumps=[], cycles=[])
    probe, front_end, jump = (Core.next_work, Core.front_end_cycle,
                              Core.fast_forward)

    def counted_probe(core):
        log.probes += 1
        return probe(core)

    def logged_front_end(core, bound):
        cycle = core.cycle
        raised = any(context.pending_interrupt is not None
                     or context.txn_abort_pending
                     for context in core.contexts)
        result = front_end(core, bound)
        if result is not None:
            outcome = "run"
        elif raised:
            outcome = "interrupt"
        elif core.cycle >= bound:
            outcome = "bound"
        elif not any(_can_fetch(context, core.cycle)
                     for context in core.contexts):
            outcome = "fetch"
        else:
            outcome = "entry"
        log.cycles.append((cycle, outcome))
        return result

    def logged_jump(core, *args):
        log.jumps.append(core.cycle)
        return jump(core, *args)

    Core.next_work = counted_probe
    Core.front_end_cycle = logged_front_end
    Core.fast_forward = logged_jump
    try:
        yield log
    finally:
        Core.next_work, Core.front_end_cycle, Core.fast_forward = (
            probe, front_end, jump)


def _slices(tracer):
    """The tracer's instruction slices as exported, after checking
    that every decoded entry appears exactly once."""
    events = [e.to_chrome() for e in tracer.events()]
    assert len({(e["tid"], e["args"]["seq"]) for e in events}) \
        == len(events) == tracer.total_emitted
    return events


def _traced_legs(build, until=None):
    """``(state, instruction slices, scheduler log)`` of the machine
    *build()* returns, run under ``Machine.run`` and then under
    ``_naive_run`` with an :class:`EventTracer` attached.  *until*,
    if given, makes each leg's predicate from its machine."""
    legs = []
    for run in (Machine.run, _naive_run):
        machine = build()
        tracer = EventTracer()
        machine.attach_tracer(tracer)
        with _scheduler_log() as log:
            run(machine, 1_000_000,
                until=None if until is None else until(machine))
        assert all(ctx.finished() for ctx in machine.contexts)
        events = _slices(tracer)
        assert len(events) == sum(ctx.stats.fetched
                                  for ctx in machine.contexts)
        legs.append((_fig7_state(machine), events, log))
    return legs


def _runs_ending(log, outcome):
    """Cycles of the front-end-only cycles that ended a run of at
    least two with *outcome*."""
    return [cycle for (before, was), (cycle, now)
            in zip(log.cycles, log.cycles[1:])
            if was == "run" and now == outcome]


def _divide_burst(divides: int) -> Machine:
    """One context: ``divides`` independent divides, all but the first
    waiting on the non-pipelined divider, then an ``addi`` that can
    issue as soon as it is fetched, and more divides."""
    builder = ProgramBuilder("divide-burst").li("r2", 96).li("r3", 4)
    for _ in range(divides):
        builder.div("r4", "r2", "r3")
    builder.addi("r5", "r2", 1)
    for _ in range(8):
        builder.div("r4", "r2", "r3")
    machine = Machine()
    machine.contexts[0].load_program(builder.halt().build())
    return machine


def test_front_end_run_ends_when_fetch_adds_an_entry_that_may_issue():
    """Fetch keeps adding divider-held divides, so the run goes on
    without probing, until it fetches the ``addi``: that ends the run
    and the next cycle steps and issues it."""
    (fast, slices, log), (naive, naive_slices, _) = _traced_legs(
        lambda: _divide_burst(24))
    assert fast == naive
    assert slices == naive_slices
    [cycle] = _runs_ending(log, "entry")
    [addi] = [e for e in slices if e["name"].startswith("addi")]
    assert addi["ts"] == cycle
    assert addi["args"]["issue"] == cycle + 1


def test_front_end_run_ends_when_the_rob_fills():
    """A burst longer than the ROB: the run ends on the cycle whose
    fetch fills it, and the probe that follows jumps to the divider's
    release instead of running empty front-end cycles."""
    (fast, slices, log), (naive, naive_slices, _) = _traced_legs(
        lambda: _divide_burst(120))
    assert fast == naive
    assert slices == naive_slices
    [cycle] = _runs_ending(log, "fetch")
    assert cycle + 1 in log.jumps
    in_rob = [e for e in slices if e["ts"] <= cycle < e["ts"] + e["dur"]]
    assert len(in_rob) == Machine().config.core.rob_size


def test_front_end_run_takes_an_interrupt_raised_by_until():
    """An ``until`` callback that raises an interrupt on the monitor
    partway through a run (once the hog is done, the monitor's ROB
    fills four entries a cycle): the next cycle takes it, as naive
    stepping does, instead of going on fetching."""

    def until(machine):
        hog, monitor = machine.contexts
        raised = []

        def raise_once(m):
            if (not raised and hog.finished()
                    and len(monitor.rob.entries) >= 50):
                monitor.pending_interrupt = "irq"
                raised.append(m.cycle)
            return False

        return raise_once

    def build():
        machine = _fig7_machine()
        machine.set_trap_handler(SimpleNamespace(
            handle_interrupt=lambda context, reason: TrapAction(cost=60)))
        return machine

    (fast, slices, log), (naive, naive_slices, _) = _traced_legs(
        build, until)
    assert fast == naive
    assert slices == naive_slices
    assert fast[1][1]["interrupts"] == 1
    assert len(_runs_ending(log, "interrupt")) == 1


def test_front_end_runs_under_a_gate():
    """With a gate attached, a run covers the cycles in which every
    ready entry waits behind a fence (dispatch consults no gate for
    them) while fetch fills the ROB, and the gate sees the same
    ``(cycle, context, seq)`` consultations as under naive stepping."""
    logs = []

    def build():
        log = []
        logs.append(log)

        def gate(core, context, entry):
            log.append((core.cycle, context.context_id, entry.seq))
            return not (entry.op_cls == "div" and core.cycle % 3 == 0)

        builder = (ProgramBuilder("fenced-burst").li("r2", 96)
                   .li("r3", 4).div("r4", "r2", "r3").fence())
        for _ in range(40):
            builder.addi("r5", "r2", 1)
        machine = Machine()
        machine.attach(SimpleNamespace(gate=gate))
        machine.contexts[0].load_program(builder.halt().build())
        return machine

    (fast, slices, log), (naive, naive_slices, _) = _traced_legs(build)
    assert fast == naive
    assert slices == naive_slices
    assert logs[0] == logs[1] and logs[0]
    assert _runs_ending(log, "fetch")


def _fig7_run(run, *observers):
    """The final state of :func:`_fig7_machine` under *run*, the number
    of ``Core.step`` calls and of ``Core.next_work`` probes it made,
    and whether the monitor's ROB was ever full behind an in-flight
    fence while the divider was held."""
    machine = _fig7_machine(*observers)
    monitor = machine.contexts[1]
    divider = machine.core.ports.port_named("p0")
    seen = []

    def watch(m):
        if (len(monitor.rob) == monitor.rob.capacity
                and monitor.fence_seqs
                and m.cycle < divider.busy_until):
            seen.append(m.cycle)
        return False

    steps = [0]
    step = Core.step

    def counted(core):
        steps[0] += 1
        step(core)

    Core.step = counted
    try:
        with _scheduler_log() as log:
            run(machine, 1_000_000, until=watch)
    finally:
        Core.step = step
    assert all(ctx.finished() for ctx in machine.contexts)
    return _fig7_state(machine), steps[0], log.probes, bool(seen)


def test_front_end_cycles_match_naive_on_a_fig7_monitor():
    """Cycle, per-context stats, predictor stats and the metrics
    registry (port ``issued`` counts included) all match naive stepping,
    ``Machine.run`` steps the core in fewer than half the cycles, and
    it probes once per step, jump or run of front-end-only cycles."""
    fast, fast_steps, fast_probes, _ = _fig7_run(Machine.run)
    naive, naive_steps, _, rob_filled = _fig7_run(_naive_run)
    assert fast == naive
    assert rob_filled
    assert naive_steps == naive[0]
    assert fast_steps == FIG7_STEPS
    assert fast_probes == FIG7_PROBES


def test_front_end_cycles_show_decode_observers_the_naive_fetch_cycles():
    """A decode observer sees each entry at the same cycle under
    ``Machine.run`` as under naive stepping, that cycle is the entry's
    ``fetch_cycle``, and attaching it keeps the front-end-only cycles.
    The event tracer's slices match too, one per decoded entry, each
    starting at that cycle."""
    legs = []
    for run in (Machine.run, _naive_run):
        decoded = []

        def on_decode(core, context, entry):
            assert entry.fetch_cycle == core.cycle
            decoded.append((entry.context_id, entry.seq, core.cycle))

        tracer = EventTracer()
        state, steps, _, _ = _fig7_run(
            run, SimpleNamespace(on_decode=on_decode), tracer)
        legs.append((state, steps, decoded, _slices(tracer)))
    (fast, fast_steps, fast_decoded, fast_events), \
        (naive, _, naive_decoded, naive_events) = legs
    assert fast == naive
    assert fast_events == naive_events
    assert fast_decoded == naive_decoded
    assert len(fast_decoded) == sum(stats["fetched"] for stats in fast[1])
    assert sorted((e["tid"], e["args"]["seq"], e["ts"])
                  for e in fast_events) == sorted(fast_decoded)
    assert fast_steps == FIG7_STEPS
