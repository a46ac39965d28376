"""The pluggable execution-backend layer.

Every backend must honour the same contract: handed the same trials,
it fills the same outcomes, the same seeds, the same journal records
and the same ``SweepReport`` resolutions — so ``inline``, ``pool``
and ``scalar`` are interchangeable execution substrates, not three
behaviours."""

import json

import pytest

from repro.harness import (
    ExecutionBackend,
    ExecutionRequest,
    FaultPolicy,
    InlineBackend,
    backend_names,
    derive_seed,
    resolve_backend,
    run_resilient_sweep,
)
from repro.harness.backends import BACKENDS

FAST = FaultPolicy(backoff_base=0.0)

GENERIC_BACKENDS = ("inline", "pool", "scalar")


def seed_echo(params, seed):
    return (params, seed)


def flaky_even_first(params, seed):
    """Even params fail on their attempt-0 seed (retries succeed)."""
    if params % 2 == 0 and seed == derive_seed(7, params, "par"):
        raise RuntimeError("flaky attempt 0")
    return (params, seed)


# --- cross-backend parity --------------------------------------------------


@pytest.mark.parametrize("backend", GENERIC_BACKENDS)
def test_backend_parity_results_and_report(backend):
    reference = run_resilient_sweep(
        seed_echo, list(range(6)), master_seed=7, label="par",
        policy=FAST, workers=1, backend="inline")
    other = run_resilient_sweep(
        seed_echo, list(range(6)), master_seed=7, label="par",
        policy=FAST, workers=2, backend=backend)
    assert other.results() == reference.results()
    assert ([t.seed for t in other.trials]
            == [t.seed for t in reference.trials])
    assert (other.report.resolution_counts()
            == reference.report.resolution_counts())


@pytest.mark.parametrize("backend", GENERIC_BACKENDS)
def test_backend_parity_under_retries(backend):
    reference = run_resilient_sweep(
        flaky_even_first, list(range(5)), master_seed=7,
        label="par", policy=FAST, workers=1, backend="inline")
    other = run_resilient_sweep(
        flaky_even_first, list(range(5)), master_seed=7,
        label="par", policy=FAST, workers=2, backend=backend)
    assert other.results() == reference.results()
    # Same trials retried, same attempt counts.
    assert ([len(t.attempts) for t in other.report.trials]
            == [len(t.attempts) for t in reference.report.trials])


@pytest.mark.parametrize("backend", GENERIC_BACKENDS)
def test_backend_parity_journal_records(backend, tmp_path):
    path = tmp_path / f"{backend}.jsonl"
    run_resilient_sweep(seed_echo, list(range(4)), master_seed=3,
                        label="jp", policy=FAST, workers=2,
                        journal=path, backend=backend)
    records = [json.loads(line)
               for line in path.read_text().splitlines()]
    trials = [r for r in records if r["kind"] == "trial"]
    assert sorted(t["index"] for t in trials) == [0, 1, 2, 3]
    # Seeds and payload digests are backend-invariant.
    by_index = {t["index"]: (t["seed"], t["sha256"]) for t in trials}
    expect = {i: derive_seed(3, i, "jp") for i in range(4)}
    assert {i: s for i, (s, _) in by_index.items()} == expect
    reference = run_resilient_sweep(
        seed_echo, list(range(4)), master_seed=3, label="jp",
        policy=FAST, workers=1, backend="inline")
    assert ([by_index[i] is not None for i in range(4)]
            and reference.results()
            == [(i, expect[i]) for i in range(4)])


# --- name resolution -------------------------------------------------------


def test_backend_names_sorted():
    assert backend_names() == ("inline", "pool", "scalar")


def test_backend_map_is_fixed():
    with pytest.raises(TypeError):
        BACKENDS["custom"] = InlineBackend()  # type: ignore[index]


def test_resolve_backend_accepts_instance():
    backend = InlineBackend()
    assert resolve_backend(backend) is backend
    assert resolve_backend("inline") is BACKENDS["inline"]


def test_resolve_backend_unknown():
    with pytest.raises(ValueError, match="backend"):
        resolve_backend("warp-drive")


def test_custom_backend_instance_runs_sweeps():
    class Doubling(ExecutionBackend):
        """Delegates to inline, then doubles every outcome —
        observable proof the custom backend actually executed."""

        def execute(self, request):
            BACKENDS["inline"].execute(request)
            for index in [t.index for t in request.todo]:
                a, b = request.outcomes[index]
                request.outcomes[index] = (a * 2, b)

    result = run_resilient_sweep(
        seed_echo, [1, 2], master_seed=0, label="cb",
        policy=FAST, workers=1, backend=Doubling())
    assert [a for a, _ in result.results()] == [2, 4]


def test_inline_backend_rejects_chaos():
    from repro.harness.chaos import ChaosPlan
    with pytest.raises(ValueError, match="isolation"):
        run_resilient_sweep(
            seed_echo, [1], master_seed=0, policy=FAST,
            chaos=ChaosPlan(faults={(0, 0): "exception"}),
            backend="inline")


def test_execution_request_clock_origin_is_sticky():
    request = ExecutionRequest(trial_fn=seed_echo, todo=[],
                               policy=FAST)
    origin = request.clock_origin()
    assert request.clock_origin() == origin
