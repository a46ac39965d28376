"""The public API surface: promoted names, snapshot, signatures.

``api_surface.json`` is the reviewed record of what this repo exports;
CI regenerates the live surface and fails on drift (see
``repro.tools.api_surface``).  These tests assert the same property
inside the tier-1 suite, plus facade signatures.
"""

import inspect
import json
import warnings
from pathlib import Path

import repro
from repro.tools.api_surface import (
    SNAPSHOT_PATH,
    diff_surface,
    export_surface,
    main,
)

SNAPSHOT = Path(__file__).parent / "api_surface.json"


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_all_is_sorted_and_unique():
    names = [n for n in repro.__all__ if n != "__version__"]
    assert names == sorted(set(names))


def test_promoted_entry_points():
    # The ISSUE's promotion list: users stop deep-importing modules.
    for name in ("Experiment", "Machine", "MachineConfig",
                 "CoreConfig", "PortContentionAttack",
                 "AESKeyRecoveryAttack", "run_resilient_sweep",
                 "FaultPolicy", "ChaosPlan", "SweepJournal", "SweepReport", "MetricsRegistry",
                 "EventTracer", "MachineSnapshot", "warm_start",
                 "to_dict", "from_dict"):
        assert name in repro.__all__, name


def test_surface_matches_snapshot():
    assert SNAPSHOT_PATH == SNAPSHOT
    expected = json.loads(SNAPSHOT.read_text())
    drift = diff_surface(expected, export_surface())
    assert not drift, "\n".join(
        ["public API drifted from tests/api/api_surface.json; run",
         "`python -m repro.tools.api_surface --update` and review:"]
        + drift)


def test_surface_check_cli(tmp_path):
    snapshot = tmp_path / "surface.json"
    assert main(["--update", "--snapshot", str(snapshot)]) == 0
    assert main(["--check", "--snapshot", str(snapshot)]) == 0
    mangled = json.loads(snapshot.read_text())
    del mangled["repro"]["Experiment"]
    mangled["repro"]["Imaginary"] = {"kind": "class"}
    snapshot.write_text(json.dumps(mangled))
    assert main(["--check", "--snapshot", str(snapshot)]) == 1
    assert main(["--check",
                 "--snapshot", str(tmp_path / "missing.json")]) == 1


# --- facade signatures -----------------------------------------------------


def test_experiment_signature():
    params = inspect.signature(repro.Experiment).parameters
    for name in ("attack", "trial", "victim", "sweep", "machine",
                 "workers", "master_seed", "label", "policy", "chaos",
                 "journal", "metrics", "tracer"):
        assert name in params, name


def test_run_resilient_sweep_signature():
    params = inspect.signature(repro.run_resilient_sweep).parameters
    for name in ("master_seed", "workers", "label", "policy", "chaos",
                 "journal", "metrics", "tracer"):
        assert name in params, name
        assert params[name].kind is inspect.Parameter.KEYWORD_ONLY


def test_derive_seed_signature_is_attempt_aware():
    params = inspect.signature(repro.derive_seed).parameters
    assert list(params) == ["master_seed", "index", "label", "attempt"]
    assert params["attempt"].default == 0


def test_cpu_star_import_is_warning_free():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec("from repro.cpu import *", {})
