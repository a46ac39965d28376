"""Warm-start keys name everything their builder reads.

Every ``warm_start`` call site keys its snapshot with
:func:`repro.snapshot.warm_key`.  For each site, two configurations
that differ in one builder input are run back to back in one process
(warm) and each again after ``clear_cache()`` (cold): a key that missed
the input would hand the second configuration the first one's machine,
and the warm results would differ from the cold ones.
"""

import dataclasses

import pytest

import repro.core.attacks.aes_cache as aes_cache
import repro.core.attacks.port_contention as port_contention
import repro.core.attacks.rsa as rsa
import repro.snapshot
from repro.config import MachineConfig
from repro.core.attacks.aes_cache import AESCacheAttack
from repro.core.attacks.port_contention import PortContentionAttack
from repro.core.attacks.rsa import ModExpExtractionAttack
from repro.core.module import MicroScopeConfig
from repro.core.replayer import AttackEnvironment, Replayer
from repro.cpu.config import CoreConfig
from repro.experiment import Experiment
from repro.snapshot import WarmKey, clear_cache, warm_key

KEY = bytes(range(16))
CIPHERTEXT = bytes(range(16, 32))


@pytest.fixture
def handed_out(monkeypatch):
    """Record the environment each call site's ``warm_start`` hands
    out, so a result can include what that machine then did."""
    envs = []

    def recording(real):
        def warm_start(key, builder):
            env, payload = real(key, builder)
            envs.append(env)
            return env, payload
        return warm_start

    for module in (aes_cache, port_contention, rsa):
        monkeypatch.setattr(module, "warm_start",
                            recording(module.warm_start))
    monkeypatch.setattr(repro.snapshot, "warm_start",
                        recording(repro.snapshot.warm_start))
    clear_cache()
    yield envs
    clear_cache()


def _warm_then_cold(run, configs):
    """``run`` each config twice in turn warm, then each once cold."""
    clear_cache()
    warm = [run(config) for config in configs + configs]
    cold = []
    for config in configs:
        clear_cache()
        cold.append(run(config))
    clear_cache()
    assert cold[0] != cold[1], "the input must change the result"
    assert warm == cold + cold


# --- the key itself ------------------------------------------------------


@dataclasses.dataclass
class _Owner:
    a: int = 1
    b: str = "x"

    def build(self):
        raise AssertionError("keys never call the builder")


class _SubOwner(_Owner):
    pass


class _Plain:
    def __init__(self):
        self.a = 1
        self.secret = 7


def test_a_dataclass_is_keyed_by_every_field():
    key = warm_key(_Owner(), "build")
    assert isinstance(key, WarmKey)
    assert key.builder == f"{__name__}._Owner.build"
    assert key != warm_key(_Owner(a=2), "build")
    assert key != warm_key(_Owner(b="y"), "build")
    assert key == warm_key(_Owner(), "build")
    assert hash(key) == hash(warm_key(_Owner(), "build"))


def test_a_subclass_gets_its_own_key():
    assert warm_key(_SubOwner(), "build").builder \
        == f"{__name__}._SubOwner.build"
    assert warm_key(_SubOwner(), "build") != warm_key(_Owner(), "build")


def test_rewritten_inputs_are_named_and_left_out():
    key = warm_key(_Owner(), "build", rewrites=("a",))
    assert key.rewritten == ("a",)
    assert key == warm_key(_Owner(a=99), "build", rewrites=("a",))
    assert key != warm_key(_Owner(b="y"), "build", rewrites=("a",))


def test_a_plain_class_names_what_its_builder_reads():
    with pytest.raises(TypeError, match="name the attributes"):
        warm_key(_Plain(), "build")
    owner = _Plain()
    key = warm_key(owner, "build", reads=("a", "secret"),
                   rewrites=("secret",))
    owner.secret = 8
    assert key == warm_key(owner, "build", reads=("a", "secret"),
                           rewrites=("secret",))
    owner.a = 2
    assert key != warm_key(owner, "build", reads=("a", "secret"),
                           rewrites=("secret",))


def test_arguments_are_inputs_and_may_not_shadow_attributes():
    assert warm_key(_Owner(), "build", samples=1) \
        != warm_key(_Owner(), "build", samples=2)
    with pytest.raises(ValueError, match="named twice"):
        warm_key(_Owner(), "build", a=3)


# --- every call site -----------------------------------------------------


def test_experiment_environment_is_keyed_by_its_configs(handed_out):
    def run(cost):
        trial = Experiment(trial=lambda params, seed: None,
                           module=MicroScopeConfig(fault_handler_cost=cost))
        rep = trial.environment(warm=True)
        assert handed_out[-1] is rep.env
        return rep.module.config.fault_handler_cost

    _warm_then_cold(run, [1000, 3000])


def test_rsa_platform_is_keyed_by_its_fields(handed_out):
    def run(cost):
        result = ModExpExtractionAttack(fault_handler_cost=cost).run(0b1011)
        return (result.extracted_bits, result.replays,
                handed_out[-1].machine.cycle)

    _warm_then_cold(run, [1500, 2500])


def test_aes_victim_is_keyed_by_what_its_builder_reads(handed_out):
    def run(cost):
        attack = AESCacheAttack(KEY, CIPHERTEXT, fault_handler_cost=cost)
        result = attack.run_figure11()
        return result.replay_latencies, handed_out[-1].machine.cycle

    _warm_then_cold(run, [1500, 2500])


def test_aes_ciphertext_is_rewritten_not_keyed(handed_out):
    """Two ciphertexts share one snapshot, and each still equals its
    cold run."""
    other = bytes(range(32, 48))

    def run(ciphertext):
        return AESCacheAttack(KEY, ciphertext).run_figure11()

    _warm_then_cold(run, [CIPHERTEXT, other])
    clear_cache()
    for ciphertext in (CIPHERTEXT, other):
        AESCacheAttack(KEY, ciphertext).run_figure11()
    assert len({id(env) for env in handed_out[-2:]}) == 1


def test_fig10_calibration_is_keyed_by_its_fields(handed_out):
    def run(divs):
        return PortContentionAttack(measurements=40,
                                    divs_per_sample=divs).calibrate(50)

    _warm_then_cold(run, [2, 4])


def test_fig10_calibration_is_keyed_by_its_sample_count(handed_out):
    def run(samples):
        threshold = PortContentionAttack(measurements=40).calibrate(samples)
        return threshold, handed_out[-1].machine.cycle

    _warm_then_cold(run, [40, 60])


def test_fig10_attack_is_keyed_by_its_fields(handed_out):
    def run(jitter):
        attack = PortContentionAttack(measurements=40, rdtsc_jitter=jitter)
        result = attack.run(secret=1, threshold=120.0)
        return result.samples, result.cycles

    _warm_then_cold(run, [0, 3])


class _PipelinedDividerAttack(PortContentionAttack):
    """Shaped like the port-layout ablation's old variant attack: it
    overrides a step of the build and keeps its variant outside the
    dataclass fields."""

    def _build_environment(self):
        core = CoreConfig(non_pipelined=frozenset(),
                          rdtsc_jitter=self.rdtsc_jitter)
        env = AttackEnvironment.build(
            machine_config=MachineConfig(core=core),
            module_config=MicroScopeConfig(
                fault_handler_cost=self.fault_handler_cost))
        return Replayer(env)


def test_a_builder_overriding_subclass_gets_its_own_snapshots(handed_out):
    def run(cls):
        attack = cls(measurements=40)
        result = attack.run(secret=1, threshold=attack.calibrate(50))
        return result.samples, result.above_threshold, result.cycles

    _warm_then_cold(run, [PortContentionAttack, _PipelinedDividerAttack])
