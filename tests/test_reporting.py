"""Machine counter reporting: ``metrics_payload`` and its text report."""

from repro.core.recipes import replay_n_times
from repro.core.replayer import AttackEnvironment, Replayer
from repro.isa.program import ProgramBuilder
from repro.reporting import metrics_payload, render_metrics


def test_report_on_idle_machine(machine):
    payload = metrics_payload(machine)
    metrics = payload["metrics"]
    assert payload["cycle"] == 0
    assert all(metrics[f"cpu.ctx{c.context_id}.retired"] == 0
               for c in machine.contexts)
    text = render_metrics(payload)
    assert "machine report @ cycle 0" in text
    assert "ctx0: IPC 0.00" in text
    assert "kernel page faults" not in text


def test_report_counts_basic_run(system):
    machine, kernel = system
    process = kernel.create_process("p")
    data = process.alloc(4096, "d")
    program = (ProgramBuilder()
               .li("r1", data)
               .load("r2", "r1", 0)
               .load("r3", "r1", 0)
               .halt().build())
    kernel.launch(process, program)
    machine.run(100_000)
    payload = metrics_payload(machine)
    metrics = payload["metrics"]
    assert metrics["cpu.ctx0.retired"] == 4
    assert 0 < metrics["cpu.ctx0.retired"] / payload["cycle"] <= 1
    assert metrics["vm.walker.walks"] == 1         # one TLB miss
    assert metrics["vm.tlb.l1d.hits"] > 0          # second load hit
    assert metrics["kernel.page_faults"] == 0
    text = render_metrics(payload)
    assert "IPC" in text and "TLB hit rate" in text
    assert "kernel page faults: 0" in text


def test_report_shows_attack_signature():
    """Replays appear as squash storms on the victim context."""
    rep = Replayer(AttackEnvironment.build())
    process = rep.create_victim_process(enclave=False)
    data = process.alloc(4096, "d")
    program = (ProgramBuilder()
               .li("r1", data).load("r2", "r1", 0).halt().build())
    recipe = rep.module.provide_replay_handle(
        process, data, attack_function=replay_n_times(8))
    rep.launch_victim(process, program)
    rep.arm(recipe)
    rep.run_until_victim_done()
    payload = metrics_payload(rep.machine)
    metrics = payload["metrics"]
    assert metrics["cpu.ctx0.faults"] == 8
    assert metrics["cpu.ctx0.replays"] >= 8
    assert metrics["microscope.handle_faults"] == 8
    assert metrics["vm.walker.faults"] == 8
    assert "microscope handle faults: 8" in render_metrics(payload)


def test_cache_hit_rates_present(system):
    machine, kernel = system
    process = kernel.create_process("p")
    data = process.alloc(4096, "d")
    program = (ProgramBuilder()
               .li("r1", data)
               .load("r2", "r1", 0)
               .load("r2", "r1", 0)
               .load("r2", "r1", 0)
               .halt().build())
    kernel.launch(process, program)
    machine.run(100_000)
    payload = metrics_payload(machine)
    metrics = payload["metrics"]
    hits, misses = metrics["mem.l1d.hits"], metrics["mem.l1d.misses"]
    # The page walk's PTE fetches count as L1 misses too, so the rate
    # sits below the naive 2/3.
    assert hits / (hits + misses) > 0.2
    assert hits >= 2
    assert (f"L1D: hit rate {hits / (hits + misses):.1%} "
            f"({hits}/{hits + misses})") in render_metrics(payload)


def test_cli_parser():
    """The `python -m repro` front end parses its subcommands."""
    import pytest as _pytest
    from repro.__main__ import main
    with _pytest.raises(SystemExit):
        main([])                      # subcommand required
    with _pytest.raises(SystemExit):
        main(["bogus"])
