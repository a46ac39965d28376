"""The MicroScope kernel module: Table-2 API and the fault trampoline."""

import random

import pytest

from repro.core.module import MicroScopeConfig
from repro.core.recipes import (
    ReplayAction,
    ReplayDecision,
    WalkLocation,
    WalkTuning,
    replay_n_times,
)
from repro.core.replayer import AttackEnvironment, Replayer
from repro.isa.program import ProgramBuilder


@pytest.fixture
def armed_setup(replayer):
    process = replayer.create_victim_process(enclave=False)
    data = process.alloc(4096, "target")
    process.write(data, 555)
    return replayer, process, data


def loader_program(va):
    return (ProgramBuilder()
            .li("r1", va)
            .load("r2", "r1", 0)
            .halt().build())


def test_initiate_page_fault(armed_setup):
    rep, process, data = armed_setup
    rep.module.initiate_page_fault(process, data)
    assert not process.page_tables.is_present(data)
    # Translation-path lines flushed.
    walk = process.page_tables.software_walk(data)
    for paddr in walk.entry_paddrs():
        assert rep.machine.hierarchy.peek_level(paddr) == -1


def test_initiate_page_walk_lengths(armed_setup):
    """Table 2: a walk of length N performs N memory accesses."""
    rep, process, data = armed_setup
    latencies = {}
    for length in (1, 2, 3, 4):
        rep.module.initiate_page_walk(process, data, length)
        walk = rep.machine.walker.walk(process.pcid, process.root_frame,
                                       data)
        latencies[length] = walk.latency
        assert not walk.faulted
    assert latencies[1] < latencies[2] < latencies[3] < latencies[4]
    with pytest.raises(ValueError):
        rep.module.initiate_page_walk(process, data, 0)


def test_walk_tuning_latencies_ordered(armed_setup):
    rep, process, data = armed_setup
    results = {}
    for leaf in (WalkLocation.L1, WalkLocation.L2, WalkLocation.L3,
                 WalkLocation.DRAM):
        tuning = WalkTuning(upper=WalkLocation.PWC, leaf=leaf)
        rep.module.apply_walk_tuning(process, data, tuning)
        walk = rep.machine.walker.walk(process.pcid, process.root_frame,
                                       data)
        results[leaf] = walk.latency
    assert results[WalkLocation.L1] < results[WalkLocation.L2] \
        < results[WalkLocation.L3] < results[WalkLocation.DRAM]
    # The paper's §4.1.2 claim: a few cycles to over a thousand.
    assert results[WalkLocation.L1] < 30


def test_walk_tuning_dram_everything_exceeds_1000(armed_setup):
    rep, process, data = armed_setup
    tuning = WalkTuning(upper=WalkLocation.DRAM, leaf=WalkLocation.DRAM)
    rep.module.apply_walk_tuning(process, data, tuning)
    walk = rep.machine.walker.walk(process.pcid, process.root_frame,
                                   data)
    assert walk.latency > 1000


def test_expected_walk_latency_close_to_actual(armed_setup):
    rep, process, data = armed_setup
    tuning = WalkTuning(upper=WalkLocation.PWC, leaf=WalkLocation.DRAM)
    rep.module.apply_walk_tuning(process, data, tuning)
    walk = rep.machine.walker.walk(process.pcid, process.root_frame,
                                   data)
    expected = rep.module.expected_walk_latency(tuning)
    assert abs(walk.latency - expected) <= 8


def test_arm_replay_release_cycle(armed_setup):
    rep, process, data = armed_setup
    recipe = rep.module.provide_replay_handle(
        process, data, attack_function=replay_n_times(4))
    rep.launch_victim(process, loader_program(data))
    rep.arm(recipe)
    rep.run_until_victim_done()
    assert recipe.replays == 4
    assert recipe.released
    assert rep.machine.contexts[0].int_regs["r2"] == 555


def test_trampoline_claims_only_armed_pages(armed_setup):
    rep, process, data = armed_setup
    other = process.alloc(4096, "other", populate=False)
    recipe = rep.module.provide_replay_handle(
        process, data, attack_function=replay_n_times(1))
    rep.arm(recipe)
    # A fault on a different page goes down the regular kernel path.
    rep.launch_victim(process, loader_program(other))
    rep.run_until_victim_done()
    assert rep.kernel.stats.demand_pages == 1
    assert recipe.replays == 0


def test_prime_and_probe_lines(armed_setup):
    rep, process, data = armed_setup
    addrs = [data + i * 64 for i in range(4)]
    rep.machine.hierarchy.flush_all()
    first = rep.module.probe_lines(process, addrs)
    assert all(lat > 300 for lat in first)       # cold
    second = rep.module.probe_lines(process, addrs)
    assert all(lat <= 4 for lat in second)       # now hot
    rep.module.prime_lines(process, addrs)
    third = rep.module.probe_lines(process, addrs)
    assert all(lat > 300 for lat in third)       # primed away


def test_peek_lines_ground_truth(armed_setup):
    rep, process, data = armed_setup
    rep.machine.hierarchy.flush_all()
    assert rep.module.peek_lines(process, [data]) == [-1]
    rep.module.probe_lines(process, [data])
    assert rep.module.peek_lines(process, [data]) == [0]


def test_provide_pivot_validation(armed_setup):
    rep, process, data = armed_setup
    recipe = rep.module.provide_replay_handle(process, data)
    with pytest.raises(ValueError):
        rep.module.provide_pivot(recipe, data + 8)
    pivot = process.alloc(4096, "pivot")
    rep.module.provide_pivot(recipe, pivot)
    assert recipe.pivot_va == pivot


def test_provide_monitor_addr(armed_setup):
    rep, process, data = armed_setup
    recipe = rep.module.provide_replay_handle(process, data)
    rep.module.provide_monitor_addr(recipe, data + 64)
    assert data + 64 in recipe.monitor_addrs


def test_disarm_restores_progress(armed_setup):
    rep, process, data = armed_setup
    recipe = rep.module.provide_replay_handle(
        process, data, max_replays=10**9)
    rep.arm(recipe)
    rep.module.disarm(recipe)
    rep.launch_victim(process, loader_program(data))
    rep.run_until_victim_done()
    assert recipe.replays == 0
    assert rep.machine.contexts[0].int_regs["r2"] == 555


def test_pivot_decision_without_pivot_raises(armed_setup):
    rep, process, data = armed_setup

    def bad_fn(event):
        return ReplayDecision(ReplayAction.PIVOT)

    recipe = rep.module.provide_replay_handle(
        process, data, attack_function=bad_fn)
    rep.launch_victim(process, loader_program(data))
    rep.arm(recipe)
    with pytest.raises(ValueError):
        rep.run_until_victim_done(max_cycles=100_000)


def test_halt_decision_stops_victim(armed_setup):
    rep, process, data = armed_setup

    def halt_fn(event):
        return ReplayDecision(ReplayAction.HALT)

    recipe = rep.module.provide_replay_handle(
        process, data, attack_function=halt_fn)
    rep.launch_victim(process, loader_program(data))
    rep.arm(recipe)
    rep.run_until_victim_done()
    from repro.cpu.context import ContextState
    assert rep.machine.contexts[0].state is ContextState.HALTED
    assert rep.machine.contexts[0].int_regs["r2"] == 0


def test_stats_accumulate(armed_setup):
    rep, process, data = armed_setup
    recipe = rep.module.provide_replay_handle(
        process, data, attack_function=replay_n_times(3))
    rep.launch_victim(process, loader_program(data))
    rep.arm(recipe)
    rep.run_until_victim_done()
    assert rep.module.stats.handle_faults == 3
    assert rep.module.stats.releases == 1


def _probe_platform(noise):
    """A platform, a process with three probed pages, and the log of
    every memory access its hierarchy's observers hear and every line
    its levels give up, in order."""
    rep = Replayer(AttackEnvironment.build(module_config=MicroScopeConfig(
        probe_noise=noise, probe_noise_seed=7)))
    process = rep.create_victim_process(enclave=False)
    hierarchy = rep.machine.hierarchy
    log = []
    hierarchy._on_mem_access += (lambda *event: log.append(event),)
    for cache in hierarchy.levels:
        cache.on_evict = lambda line, dirty, name=cache.name: log.append(
            (name, line, dirty))
    return rep, process, process.alloc(3 * 4096, "probed"), log


@pytest.mark.parametrize("noise", [0.0, 0.3])
def test_prime_and_probe_match_per_line_flushes_and_accesses(noise):
    """``prime_lines``/``probe_lines`` do what a per-line loop of
    ``flush_line``/``access`` does: the same latencies (misread with
    the same draws when ``probe_noise`` is on), costs, counters, cache
    state, and the accesses and evictions the levels report, in
    order."""
    batched, batched_process, base, batched_log = _probe_platform(noise)
    looped, process, looped_base, looped_log = _probe_platform(noise)
    assert looped_base == base
    module = batched.module
    hierarchy = looped.machine.hierarchy
    hit, miss = hierarchy.hit_latency(0), hierarchy.hit_latency(-1)
    draws = random.Random(7)
    lines = [base + n * 64 + (n % 5) * 8 for n in range(0, 160, 3)]
    again = [base + 320, base + 328, base + 328]   # one line, three VAs
    rounds = [lines, again + lines[:10], lines[::-1]]
    for addrs in rounds:
        latencies = module.probe_lines(batched_process, iter(addrs))
        expected = []
        for va in addrs:
            latency = hierarchy.access(process.translate_any(va))
            if noise and draws.random() < noise:
                latency = miss if latency <= (hit + miss) // 2 else hit
            expected.append(latency)
        assert latencies == expected
        cost = module.prime_lines(batched_process, iter(addrs))
        for va in addrs:
            hierarchy.flush_line(process.translate_any(va))
        assert cost == len(addrs) * module.config.flush_cost
        assert batched.machine.hierarchy.capture() == hierarchy.capture()
        assert batched_log == looped_log
    assert module.stats.probes == module.stats.primes == len(rounds)
