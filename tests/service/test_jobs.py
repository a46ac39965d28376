"""Job specs: content-addressed identity and resolution."""

import pytest

from repro.evaluation import attack_names, defense_names
from repro.service import JobSpec, ServiceError, job_id


def test_job_id_is_content_addressed():
    a = JobSpec(attacks=("cf-cache",), defenses=("none", "fences"))
    b = JobSpec(attacks=("cf-cache",), defenses=("none", "fences"))
    assert job_id(a) == job_id(b)
    assert len(job_id(a)) == 16


def test_job_id_ignores_worker_count():
    base = JobSpec(attacks=("cf-cache",), defenses=("none",))
    sharded = JobSpec(attacks=("cf-cache",), defenses=("none",),
                      workers=4)
    assert job_id(base) == job_id(sharded)


def test_spec_carries_no_execution_choice():
    """Identity holds only what changes results: the dict form has
    no dispatch knob for ``job_id`` (or a resubmission) to trip on."""
    spec = JobSpec(attacks=("cf-cache",), defenses=("none",))
    assert sorted(spec.to_dict()) == [
        "attacks", "defenses", "label", "master_seed", "overrides",
        "workers"]


def test_job_id_wildcards_equal_explicit_axes():
    assert job_id(JobSpec()) == job_id(
        JobSpec(attacks=attack_names(), defenses=defense_names()))


def test_job_id_differs_on_seed_and_overrides():
    base = JobSpec(attacks=("cf-cache",), defenses=("none",))
    assert job_id(base) != job_id(
        JobSpec(attacks=("cf-cache",), defenses=("none",),
                master_seed=1))
    assert job_id(base) != job_id(
        JobSpec(attacks=("cf-cache",), defenses=("none",),
                overrides={"cf-cache": {"x": 1}}))


def test_resolved_fills_defaults():
    from repro.evaluation import DEFAULT_LABEL, DEFAULT_MASTER_SEED
    spec = JobSpec(attacks=("cf-cache",), defenses=("none",)).resolved()
    assert spec.master_seed == DEFAULT_MASTER_SEED
    assert spec.label == DEFAULT_LABEL


def test_resolved_validates_names():
    with pytest.raises(KeyError, match="unknown attack"):
        JobSpec(attacks=("warp-attack",)).resolved()


def test_from_dict_rejects_unknown_keys():
    """A misspelled axis must not widen the job to every defense, and
    a pre-upgrade payload's ``backend`` is no longer a spec key."""
    with pytest.raises(ValueError, match="backend, defences"):
        JobSpec.from_dict({"attacks": ["cf-cache"],
                           "defences": ["none"], "backend": "inline"})


def test_submit_with_unknown_key_creates_no_job(service):
    client, state = service
    with pytest.raises(ServiceError, match="defences"):
        client._request({"op": "submit",
                         "spec": {"attacks": ["cf-cache"],
                                  "defences": ["none"]}})
    assert client.jobs() == []
    jobs_root = state / "jobs"
    assert not jobs_root.exists() or not any(jobs_root.iterdir())


def test_cells_are_attacks_outer_defenses_inner():
    spec = JobSpec(attacks=("cf-cache", "mispredict"),
                   defenses=("none", "fences"))
    assert [(a, d) for a, d, _ in spec.cells()] == [
        ("cf-cache", "none"), ("cf-cache", "fences"),
        ("mispredict", "none"), ("mispredict", "fences")]
    assert spec.trial_count == 4


def test_to_from_dict_roundtrip():
    spec = JobSpec(attacks=("cf-cache",), defenses=("none",),
                   overrides={"cf-cache": {"k": 1}}, master_seed=5,
                   label="x", workers=3)
    clone = JobSpec.from_dict(spec.to_dict())
    assert clone == spec
    assert job_id(clone) == job_id(spec)


def test_workers_must_be_positive():
    with pytest.raises(ValueError, match="workers"):
        JobSpec(workers=0)
