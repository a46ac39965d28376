"""The machine-level defense mechanisms: registry wiring, the
per-scheme state machines (tracking decay, shadow release ordering,
throttle hysteresis), snapshot support, and the end-to-end
suppression claims of their evaluation drivers."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.config import DefenseHookConfig, MachineConfig
from repro.cpu.machine import Machine
from repro.cpu.rob import EntryState
from repro.evaluation.defenses import (
    DelayOnSquashMechanism,
    JamaisVuMechanism,
    LeashMechanism,
    SIMFFlushMechanism,
    delay_on_squash_machine,
    evaluate_delay_on_squash,
    evaluate_jamais_vu,
    evaluate_leash,
    evaluate_simf,
    is_kernel_entry,
    jamais_vu_machine,
    leash_machine,
    simf_machine,
)
from repro.evaluation.defenses.mechanisms import (
    MECHANISM_MODULES,
    MECHANISMS,
    DefenseMechanism,
    build_mechanism,
    nonspeculative,
    register_mechanism,
)


def _entry(seq, index=None, state=EntryState.COMPLETED, fault=None,
           op_cls="alu"):
    return SimpleNamespace(seq=seq,
                           index=seq if index is None else index,
                           state=state, fault=fault,
                           faulted=fault is not None, op_cls=op_cls)


def _context(entries=(), context_id=0, squash_events=0):
    return SimpleNamespace(
        context_id=context_id,
        rob=SimpleNamespace(entries=list(entries)),
        stats=SimpleNamespace(squash_events=squash_events))


class _NullCounter:
    def inc(self, n=1):
        pass


def _fake_machine(issue_width=6):
    observers = []
    core = SimpleNamespace(cycle=0,
                           config=SimpleNamespace(
                               issue_width=issue_width))
    metrics = SimpleNamespace(counter=lambda name: _NullCounter())
    return SimpleNamespace(core=core, metrics=metrics,
                           observers=observers, attach=observers.append)


# --- registry --------------------------------------------------------------


def test_registry_has_all_schemes():
    assert {"jamais-vu", "delay-on-squash", "simf",
            "leash"} <= set(MECHANISMS)


def test_unknown_scheme_raises_with_registered_list():
    with pytest.raises(KeyError, match="jamais-vu"):
        build_mechanism(DefenseHookConfig(scheme="no-such-defense"))


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError, match="already registered"):
        register_mechanism("jamais-vu")(JamaisVuMechanism)


def test_registration_outside_the_table_rejected():
    class Unlisted(DefenseMechanism):
        scheme = "unlisted"

    with pytest.raises(ValueError, match="MECHANISM_MODULES"):
        register_mechanism("unlisted")(Unlisted)
    # A listed scheme registered from another module is refused too:
    # build_mechanism would import the listed module and miss it.
    with pytest.raises(ValueError, match="MECHANISM_MODULES"):
        register_mechanism("leash")(Unlisted)
    assert "unlisted" not in MECHANISMS


def test_table_and_decorators_agree():
    for module in MECHANISM_MODULES.values():
        importlib.import_module(module)
    assert set(MECHANISMS) == set(MECHANISM_MODULES)
    for scheme, factory in MECHANISMS.items():
        assert factory.__module__ == MECHANISM_MODULES[scheme]
        assert factory.scheme == scheme


#: Run in a fresh interpreter, where nothing has imported a mechanism
#: module: a defended machine must find its mechanism through the
#: table alone.
_FRESH_BUILD = """
import json, sys
from repro.config import DefenseHookConfig, MachineConfig
from repro.cpu.machine import Machine
from repro.evaluation.defenses.mechanisms import build_mechanism

def loaded():
    return sorted(m for m in sys.modules
                  if m.startswith("repro.evaluation.defenses.")
                  and m.rsplit(".", 1)[1] in {MODULES})

before = loaded()
try:
    build_mechanism(DefenseHookConfig(scheme="no-such-defense"))
except KeyError as exc:
    unknown = str(exc)
built = {{}}
for scheme in {SCHEMES}:
    machine = Machine(MachineConfig(
        defense=DefenseHookConfig(scheme=scheme)))
    built[scheme] = [type(machine.defense).__module__,
                     machine.defense.scheme]
print(json.dumps({{"before": before, "unknown": unknown,
                  "built": built, "after": loaded()}}))
"""


def test_fresh_process_builds_every_defended_machine():
    schemes = ("fences", "simf", "jamais-vu", "delay-on-squash", "leash")
    modules = ("fences", "simf", "jamais_vu", "delay_on_squash", "leash")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    proc = subprocess.run(
        [sys.executable, "-c",
         _FRESH_BUILD.format(MODULES=set(modules), SCHEMES=schemes)],
        capture_output=True, text=True, env=env, timeout=60, check=True)
    result = json.loads(proc.stdout)
    assert result["before"] == []
    for scheme in schemes:
        assert scheme in result["unknown"]
    assert result["built"] == {
        scheme: [f"repro.evaluation.defenses.{module}", scheme]
        for scheme, module in zip(schemes, modules)}
    assert result["after"] == sorted(
        f"repro.evaluation.defenses.{module}" for module in modules)


def test_machine_installs_and_wires_mechanism():
    machine = Machine(jamais_vu_machine())
    assert isinstance(machine.defense, JamaisVuMechanism)
    assert machine.core._gate == (machine.defense.gate,)
    assert machine.core._on_squash == (machine.defense.on_squash,)
    # params reach the factory
    machine = Machine(jamais_vu_machine("epoch", epoch_retires=7))
    assert machine.defense.variant == "epoch"
    assert machine.defense.epoch_retires == 7


def test_default_machine_has_no_defense():
    machine = Machine()
    assert machine.defense is None
    assert not machine.core._gate
    assert not machine.core._on_squash


# --- the nonspeculative release condition ----------------------------------


def test_head_entry_is_nonspeculative():
    entry = _entry(5)
    assert nonspeculative(_context([entry]), entry)


def test_incomplete_older_entry_blocks():
    older = _entry(1, state=EntryState.EXECUTING)
    entry = _entry(2)
    assert not nonspeculative(_context([older, entry]), entry)


def test_faulted_older_entry_blocks_even_when_completed():
    older = _entry(1, fault=object())
    entry = _entry(2)
    assert not nonspeculative(_context([older, entry]), entry)


def test_clean_completed_prefix_releases():
    older = _entry(1)
    entry = _entry(2)
    assert nonspeculative(_context([older, entry]), entry)


# --- Jamais Vu -------------------------------------------------------------


def test_counter_variant_saturates():
    mech = JamaisVuMechanism(variant="counter", saturate=3)
    ctx = _context()
    for _ in range(5):
        mech.on_squash(None, ctx, [_entry(1, index=7)], "page-fault", None)
    assert mech.flagged(0) == {7: 3}


def test_counter_variant_decays_on_retire():
    mech = JamaisVuMechanism(variant="counter", saturate=3)
    ctx = _context()
    for _ in range(2):
        mech.on_squash(None, ctx, [_entry(1, index=7)], "page-fault", None)
    mech.on_retire(None, ctx, _entry(1, index=7))
    assert mech.flagged(0) == {7: 1}
    mech.on_retire(None, ctx, _entry(1, index=7))
    assert mech.flagged(0) == {}


def test_epoch_variant_clears_in_bulk():
    mech = JamaisVuMechanism(variant="epoch", epoch_retires=3)
    ctx = _context()
    mech.on_squash(None, ctx, [_entry(1, index=1), _entry(2, index=2)],
                    "page-fault", None)
    mech.on_retire(None, ctx, _entry(3, index=3))
    mech.on_retire(None, ctx, _entry(4, index=4))
    assert mech.flagged(0) == {1: 1, 2: 1}  # epoch not over yet
    mech.on_retire(None, ctx, _entry(5, index=5))
    assert mech.flagged(0) == {}


def test_clear_on_retire_is_per_entry():
    mech = JamaisVuMechanism(variant="clear-on-retire")
    ctx = _context()
    mech.on_squash(None, ctx, [_entry(1, index=1), _entry(2, index=2)],
                    "page-fault", None)
    mech.on_retire(None, ctx, _entry(1, index=1))
    assert mech.flagged(0) == {2: 1}


def test_unknown_variant_rejected():
    with pytest.raises(ValueError, match="unknown Jamais Vu variant"):
        JamaisVuMechanism(variant="nope")


def test_gate_blocks_flagged_speculative_entry_only():
    mech = JamaisVuMechanism()
    older = _entry(1, index=1, state=EntryState.EXECUTING)
    flagged = _entry(2, index=2)
    ctx = _context([older, flagged])
    mech.on_squash(None, ctx, [flagged], "page-fault", None)
    assert not mech.gate(None, ctx, flagged)          # speculative: held
    assert mech.gate(None, ctx, older)                # unflagged: passes
    ctx_head = _context([flagged])
    assert mech.gate(None, ctx_head, flagged)    # nonspeculative: released


def test_jamais_vu_capture_restore_round_trip():
    mech = JamaisVuMechanism(variant="epoch")
    ctx = _context()
    mech.on_squash(None, ctx, [_entry(1, index=4)], "page-fault", None)
    state = mech.capture()
    mech.on_squash(None, ctx, [_entry(2, index=9)], "mispredict", None)
    mech.restore(state)
    assert mech.flagged(0) == {4: 1}


# --- Delay-on-Squash -------------------------------------------------------


def test_shadow_arms_and_decays():
    mech = DelayOnSquashMechanism(shadow_retires=2)
    ctx = _context()
    mech.on_squash(None, ctx, [], "mispredict", None)
    assert mech.in_shadow(0)
    mech.on_retire(None, ctx, _entry(1))
    assert mech.in_shadow(0)
    mech.on_retire(None, ctx, _entry(2))
    assert not mech.in_shadow(0)


def test_shadow_gates_only_side_channel_classes():
    mech = DelayOnSquashMechanism()
    older = _entry(1, state=EntryState.EXECUTING)
    load = _entry(2, op_cls="load")
    alu = _entry(3, op_cls="alu")
    ctx = _context([older, load, alu])
    mech.on_squash(None, ctx, [], "page-fault", None)
    assert not mech.gate(None, ctx, load)   # side-channel-capable: held
    assert mech.gate(None, ctx, alu)        # harmless class: passes


def test_shadow_releases_in_program_order():
    mech = DelayOnSquashMechanism()
    first = _entry(1, op_cls="load", state=EntryState.READY)
    second = _entry(2, op_cls="load", state=EntryState.READY)
    ctx = _context([first, second])
    mech.on_squash(None, ctx, [], "page-fault", None)
    assert mech.gate(None, ctx, first)        # oldest: may proceed
    assert not mech.gate(None, ctx, second)   # younger: waits for first


def test_no_shadow_no_gating():
    mech = DelayOnSquashMechanism()
    older = _entry(1, state=EntryState.EXECUTING)
    load = _entry(2, op_cls="load")
    ctx = _context([older, load])
    assert mech.gate(None, ctx, load)


# --- SIMF ------------------------------------------------------------------


@pytest.mark.parametrize("reason,expected", [
    ("page-fault", True),
    ("interrupt:timer", True),
    ("mispredict", False),
    ("memory-order", False),
    ("txn-abort:conflict", False),
])
def test_is_kernel_entry(reason, expected):
    assert is_kernel_entry(reason) is expected


def test_simf_flushes_hierarchy_on_kernel_entry():
    machine = Machine(simf_machine())
    hierarchy = machine.hierarchy
    threshold = hierarchy.hit_latency(1)
    hierarchy.access(0x4000)
    assert hierarchy.access(0x4000) <= threshold       # warm
    machine.defense.on_squash(machine.core, _context(), [], "mispredict", None)
    assert hierarchy.access(0x4000) <= threshold       # still warm
    machine.defense.on_squash(machine.core, _context(), [], "page-fault", None)
    assert hierarchy.access(0x4000) > threshold        # flushed
    flushes = machine.metrics.counter("defense.simf.flushes")
    assert flushes.value == 1


def test_simf_flush_tlbs_knob():
    machine = Machine(simf_machine(flush_tlbs=False))
    assert isinstance(machine.defense, SIMFFlushMechanism)
    assert machine.defense.flush_tlbs is False


# --- LEASH -----------------------------------------------------------------


def _leash(hi=3, lo=1, window=100, factor=2, issue_width=6):
    mech = LeashMechanism(hi=hi, lo=lo, window_cycles=window,
                          throttle_factor=factor)
    machine = _fake_machine(issue_width=issue_width)
    mech.attach(machine)
    return mech, machine.core


def test_leash_hysteresis_engage_hold_release():
    mech, core = _leash()
    ctx = _context()
    core.cycle = 100                       # quiet window
    assert not mech.throttled(ctx)
    ctx.stats.squash_events += 5           # storm: rate 5 >= hi
    core.cycle = 200
    assert mech.throttled(ctx)
    ctx.stats.squash_events += 2           # mid-band: lo < 2 < hi
    core.cycle = 300
    assert mech.throttled(ctx)             # hysteresis holds
    core.cycle = 400                       # silence: rate 0 <= lo
    assert not mech.throttled(ctx)
    ctx.stats.squash_events += 2           # mid-band from off
    core.cycle = 500
    assert not mech.throttled(ctx)         # stays off


def test_leash_requires_lo_below_hi():
    with pytest.raises(ValueError, match="lo <= hi"):
        LeashMechanism(hi=1, lo=2)


def test_leash_gate_enforces_issue_budget():
    mech, core = _leash(issue_width=6, factor=2)
    ctx = _context()
    ctx.stats.squash_events = 9
    core.cycle = 100
    assert mech.throttled(ctx)
    entry = _entry(1)
    core.cycle = 110                       # inside the next window
    for _ in range(3):                     # budget = 6 // 2
        assert mech.gate(core, ctx, entry)
        mech.on_issue(core, ctx, entry)
    assert not mech.gate(core, ctx, entry)      # over budget this cycle
    core.cycle = 111                       # new cycle, fresh budget
    assert mech.gate(core, ctx, entry)


def test_leash_capture_restore_round_trip():
    mech, core = _leash()
    ctx = _context()
    ctx.stats.squash_events = 9
    core.cycle = 100
    assert mech.throttled(ctx)
    state = mech.capture()
    core.cycle = 200
    assert not mech.throttled(ctx)
    mech.restore(state)
    assert mech._state.get(0) is True


# --- machine snapshot integration ------------------------------------------


def test_capture_appends_defense_state():
    machine = Machine(jamais_vu_machine())
    ctx = _context()
    machine.defense.on_squash(machine.core, ctx, [_entry(1, index=3)],
                               "page-fault", None)
    payload = machine.capture()
    assert len(payload) == 8
    machine.defense.on_squash(machine.core, ctx, [_entry(2, index=5)],
                               "page-fault", None)
    machine.restore(payload)
    assert machine.defense.flagged(0) == {3: 1}


def test_default_capture_keeps_historical_shape():
    assert len(Machine().capture()) == 7


def test_restore_rejects_snapshot_without_defense_state():
    defended = Machine(jamais_vu_machine())
    with pytest.raises(ValueError, match="lacks defense state"):
        defended.restore(Machine().capture())


def test_restore_rejects_defense_state_on_an_undefended_machine():
    """A fences snapshot carries an (empty) defense slot; restoring it
    into an undefended machine must fail, not run without fences."""
    fenced = Machine(MachineConfig(defense=DefenseHookConfig(
        scheme="fences")))
    with pytest.raises(ValueError, match="carries defense state"):
        Machine().restore(fenced.capture())


def test_restore_rejects_another_schemes_defense_state():
    """A fences and a simf payload have the same length; restoring one
    into the other must fail, not run under the wrong defense."""
    fenced = Machine(MachineConfig(defense=DefenseHookConfig(
        scheme="fences")))
    simf = Machine(MachineConfig(defense=DefenseHookConfig(
        scheme="simf")))
    with pytest.raises(ValueError, match="'fences' defense state"):
        simf.restore(fenced.capture())


# --- evaluation drivers ----------------------------------------------------


@pytest.mark.parametrize("variant", ["counter", "epoch",
                                     "clear-on-retire"])
def test_jamais_vu_suppresses_replay(variant):
    report = evaluate_jamais_vu(replays=4, variant=variant)
    assert report.transmit_issues_undefended > 0
    assert report.transmit_issues_defended == 0
    assert report.replay_suppressed


def test_delay_on_squash_suppresses_replay():
    report = evaluate_delay_on_squash(replays=4)
    assert report.transmit_issues_undefended > 0
    assert report.transmit_issues_defended == 0
    assert report.replay_suppressed


def test_simf_erases_residue():
    report = evaluate_simf(secret=1, replays=4)
    assert report.undefended_guess == 1
    assert report.residue_erased
    assert report.defended_hits < report.undefended_hits


def test_leash_hysteresis_observed_end_to_end():
    report = evaluate_leash()
    assert report.hysteresis_observed
    assert report.trace[0] is True
    assert report.trace[-1] is False
