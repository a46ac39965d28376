"""The oracle option across the experiment facade and the matrix.

Covers the ISSUE's API-symmetry contract — ``Experiment`` and
``MatrixRunner`` accept the same execution kwargs with the same
defaults — plus the end-to-end oracle path: leakage summaries in cell
detail, ``oracle.*`` metrics, unchanged statistical payloads, and the
explicit errors for the unsupported combinations.
"""

import dataclasses

import pytest

import repro
from repro.evaluation.matrix import MatrixRunner, _cell_trial
from repro.experiment import Experiment

#: The kwargs the ISSUE requires to exist on both facades, identically.
SHARED_KWARGS = ("store", "oracle",
                 "workers", "policy", "chaos", "journal",
                 "master_seed", "label", "metrics", "tracer")


@pytest.mark.parametrize("name", SHARED_KWARGS)
def test_experiment_and_matrix_runner_kwargs_stay_in_sync(name):
    exp_fields = {f.name: f for f in
                  dataclasses.fields(Experiment)}
    mat_fields = {f.name: f for f in
                  dataclasses.fields(MatrixRunner)}
    assert name in exp_fields, f"Experiment lost {name}="
    assert name in mat_fields, f"MatrixRunner lost {name}="
    if name in ("master_seed", "label"):
        return  # present on both, defaults intentionally differ
    exp, mat = exp_fields[name], mat_fields[name]
    assert exp.default == mat.default, \
        f"{name}= defaults diverged: {exp.default!r} vs {mat.default!r}"


def test_experiment_service_raises_toward_matrix_runner():
    """Only whole matrices are service-routable: ``service=`` lives on
    ``MatrixRunner`` alone."""
    with pytest.raises(TypeError, match="service"):
        Experiment(trial=_cell_trial, service="/tmp/state")


def test_matrix_runner_rejects_oracle_with_service():
    runner = MatrixRunner(attacks=("cf-cache",), defenses=("none",),
                          service="/tmp/state", oracle=True)
    with pytest.raises(NotImplementedError, match="oracle"):
        runner.run()


def test_oracle_kwarg_rejects_junk():
    with pytest.raises(TypeError):
        MatrixRunner(attacks=("cf-cache",), defenses=("none",),
                     oracle="on").run()


@pytest.fixture(scope="module")
def matrices():
    """One cf-cache/none cell, oracle off and on (module-scoped: the
    cell runs a full attack environment)."""
    off = MatrixRunner(attacks=("cf-cache",), defenses=("none",))
    on = MatrixRunner(attacks=("cf-cache",), defenses=("none",),
                      oracle=True, tracer=repro.EventTracer())
    return off.run(), on.run(), on


def test_matrix_cell_carries_oracle_summary(matrices):
    _, on_matrix, _ = matrices
    summary = on_matrix.cell("cf-cache", "none").metrics.detail["oracle"]
    assert summary["verdict"] == "leaks"
    assert summary["events"] == sum(summary["counts"].values())


def test_oracle_leaves_statistical_payload_unchanged(matrices):
    off_matrix, on_matrix, _ = matrices
    off_cell = off_matrix.cell("cf-cache", "none").to_dict()
    on_cell = on_matrix.cell("cf-cache", "none").to_dict()
    del on_cell["metrics"]["detail"]["oracle"]
    assert on_cell == off_cell


def test_oracle_metrics_and_tracer_sinks(matrices):
    _, _, runner = matrices
    dump = runner.last_run_report.metrics.dump()
    assert dump["oracle.cell.cf-cache.none.events"] > 0
    instants = [e for e in runner.tracer.events()
                if e.cat == "oracle"]
    assert instants and instants[0].args["verdict"] == "leaks"


def test_experiment_oracle_reports_per_trial_summaries():
    report = Experiment(
        trial=_cell_trial,
        sweep=[("cf-cache", "none", {})], oracle=True).run()
    assert report.oracle is not None and len(report.oracle) == 1
    assert report.oracle[0]["verdict"] == "leaks"
    # The boxed payload is unwrapped: results carry the plain trial
    # return value, bit-identical to an oracle-off sweep's.
    assert report.result["accuracy"] is not None
    assert "__oracle__" not in report.result
    assert report.metrics.dump()["oracle.leaking_trials"] == 1


def test_experiment_oracle_off_report_has_no_oracle_field():
    report = Experiment(trial=_cell_trial,
                        sweep=[("cf-cache", "none", {})]).run()
    assert report.oracle is None
    assert "oracle.trials" not in report.metrics.dump()
