"""The nightly differential-sweep tool."""

import json

from repro.cpu.context import HardwareContext
from repro.cpu.core import Core
from repro.cpu.ports import Port
from repro.evaluation.defenses import DEFENSES
from repro.harness import derive_seed
from repro.isa import interpreter
from repro.tools.diffsweep import (
    LABEL,
    defended_configs,
    generate_program,
    main,
    run_case,
    run_sweep,
)


def test_generate_program_is_seed_deterministic():
    a = generate_program(1234)
    b = generate_program(1234)
    assert [str(i) for i in a.instructions] \
        == [str(i) for i in b.instructions]
    c = generate_program(1235)
    assert [str(i) for i in a.instructions] \
        != [str(i) for i in c.instructions]


def test_run_case_matches_on_sampled_seeds():
    for case in range(3):
        seed = derive_seed(2019, case, LABEL)
        payload = run_case({"case": case}, seed)
        assert payload["match"], payload["mismatches"]
        assert payload["seed"] == seed
        assert payload["retired"] > 0


def test_run_case_checks_port_issues_against_context_issues(monkeypatch):
    """A port that counts an issue twice leaves the architectural state
    intact; only the counter contract notices."""
    counted = Port.issue

    def twice(self, now, op_cls, latency):
        counted(self, now, op_cls, latency)
        if op_cls == "store":
            self.stats.issued += 1

    monkeypatch.setattr(Port, "issue", twice)
    seed = next(s for s in (derive_seed(2019, case, LABEL)
                            for case in range(20))
                if any(i.is_store for i in generate_program(s)))
    payload = run_case({"case": 0}, seed)
    assert not payload["match"]
    [mismatch] = payload["mismatches"]
    assert mismatch.startswith("port issues")


def test_run_case_checks_retired_against_the_golden_model(monkeypatch):
    """A golden-model count one off is reported, and nothing else is:
    the core's own counts still balance."""
    golden = interpreter.run_program

    def one_more(program, *args, **kwargs):
        state = golden(program, *args, **kwargs)
        state.retired += 1
        return state

    monkeypatch.setattr(interpreter, "run_program", one_more)
    payload = run_case({"case": 0}, derive_seed(2019, 0, LABEL))
    assert not payload["match"]
    [mismatch] = payload["mismatches"]
    assert mismatch.startswith("retired ")


def test_run_case_checks_fetched_against_retired_plus_squashed(
        monkeypatch):
    """A squash that goes uncounted leaves the architectural state and
    the retired count intact; only the fetch balance notices."""
    noted = HardwareContext.note_squashed

    def one_short(self, entries):
        noted(self, entries)
        if entries:
            self.stats.squashed -= 1

    monkeypatch.setattr(HardwareContext, "note_squashed", one_short)
    payload = run_case({"case": 0}, derive_seed(2019, 0, LABEL))
    assert not payload["match"]
    [mismatch] = payload["mismatches"]
    assert mismatch.startswith("ctx0 fetched ")


def test_defended_leg_covers_every_defended_matrix_column():
    configs = defended_configs()
    assert list(configs) == [name for name, spec in DEFENSES.items()
                             if spec.machine is not None]
    assert len(configs) == 7
    leash = configs["leash"].defense
    assert leash.scheme == "leash"
    assert leash.params == {"window_cycles": 64, "throttle_factor": 8}


def test_run_case_checks_the_scheduler_against_naive_stepping(
        monkeypatch):
    """A probe that skips cycles in which dispatch would hand a
    port-held entry to the gates (the gate rule dropped from
    ``Core._hold``) leaves the architectural state, the cycle and the
    context stats intact, and an undefended machine attaches no gate.
    Only the defended leg notices, by name: in each gating
    mechanism's counters and in LEASH's detector state."""
    hold = Core._hold

    def ungated(self, op_cls):
        gates, self._gate = self._gate, ()
        try:
            return hold(self, op_cls)
        finally:
            self._gate = gates

    monkeypatch.setattr(Core, "_hold", ungated)
    payload = run_case({"case": 5}, derive_seed(2019, 5, LABEL))
    assert not payload["match"]
    assert payload["mismatches"] == [
        "jv-counter: metrics mismatch against naive stepping",
        "jv-epoch: metrics mismatch against naive stepping",
        "jv-cor: metrics mismatch against naive stepping",
        "delay-on-squash: metrics mismatch against naive stepping",
        "leash: defense mismatch against naive stepping"]


def test_run_sweep_writes_artifacts_and_resumes(tmp_path):
    out = tmp_path / "nightly"
    summary = run_sweep(4, out_dir=out, workers=1)
    assert summary["matched"] == summary["cases"] == 4
    assert summary["failures"] == []
    assert (out / "diffsweep.json").exists()
    journal = (out / "journal.jsonl").read_text().splitlines()
    trials = [json.loads(line) for line in journal
              if json.loads(line).get("kind") == "trial"]
    assert sorted(t["index"] for t in trials) == [0, 1, 2, 3]
    # Second run resumes everything from the journal: zero reruns.
    again = run_sweep(4, out_dir=out, workers=1)
    assert again["report"]["resolutions"]["journal"] == 4
    assert again["report"]["resolutions"]["ok"] == 0
    assert again["matched"] == 4


def test_main_single_case_exit_zero(capsys):
    assert main(["--case", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["match"] is True


def test_main_sweep_exit_zero(tmp_path, capsys):
    assert main(["--cases", "2",
                 "--out-dir", str(tmp_path / "d")]) == 0
    assert "2/2 cases matched" in capsys.readouterr().out
