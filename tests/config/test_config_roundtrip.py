"""repro.config: canonical namespace + to_dict/from_dict round-trips."""

import json

import pytest

import repro.config as config


def roundtrip(cfg):
    """Through JSON text, not just dicts — the journal/report path."""
    return config.from_dict(json.loads(json.dumps(config.to_dict(cfg))))


def test_machine_config_default_roundtrip():
    cfg = config.MachineConfig()
    assert roundtrip(cfg) == cfg


def test_nested_customisation_roundtrip():
    cfg = config.MachineConfig(
        core=config.CoreConfig(
            num_contexts=4,
            non_pipelined=frozenset({"div", "sqrt"}),
            latencies={"mul": 5, "div": 21},
        ),
        hierarchy=config.HierarchyConfig(
            levels=(config.CacheConfig("L1D", size_bytes=16 * 1024,
                                       ways=4, latency=3),),
            dram_latency=250,
        ),
        tlbs=config.TLBHierarchyConfig(
            l2=config.TLBConfig("L2-TLB", entries=512, ways=8,
                                latency=9)),
        pwc=config.PWCConfig(entries=16),
        num_frames=1 << 12,
    )
    back = roundtrip(cfg)
    assert back == cfg
    # Collection types survive exactly (dataclass == would also pass
    # for list vs tuple mismatches inside levels' parent equality).
    assert isinstance(back.core.ports, tuple)
    assert isinstance(back.core.non_pipelined, frozenset)
    assert isinstance(back.hierarchy.levels, tuple)


def test_lazy_configs_roundtrip():
    for name in ("KernelConfig", "EnclaveConfig", "MicroScopeConfig"):
        cls = getattr(config, name)
        assert roundtrip(cls()) == cls()


def test_port_config_frozenset_roundtrip():
    port = config.PortConfig("P9", frozenset({"mul", "div"}))
    assert roundtrip(port) == port


def test_to_dict_rejects_non_config():
    with pytest.raises(TypeError):
        config.to_dict({"just": "a dict"})
    with pytest.raises(TypeError):
        config.to_dict(42)


def test_from_dict_rejects_untagged():
    with pytest.raises(ValueError):
        config.from_dict({"core": {}})


def test_from_dict_rejects_unknown_tag():
    # A payload tagged with a config class that no longer exists must
    # not load either.
    for tag in ("WarpDriveConfig", "MemoConfig"):
        with pytest.raises(ValueError):
            config.from_dict({"__config__": tag})


def test_from_dict_rejects_a_removed_field():
    """A stored CoreConfig from before quiescence skipping became
    unconditional still carries ``fast_forward``; it must not load as
    if the field had never been there."""
    payload = config.to_dict(config.MachineConfig())
    payload["core"]["fast_forward"] = True
    with pytest.raises(TypeError, match="fast_forward"):
        config.from_dict(payload)


def test_from_dict_rejects_the_removed_fence_knob():
    """A stored CoreConfig from before the fences defense became a
    ``DefenseHookConfig(scheme="fences")`` mechanism still carries
    ``fence_on_flush``; it must not load as an undefended platform."""
    payload = config.to_dict(config.MachineConfig())
    payload["core"]["fence_on_flush"] = True
    with pytest.raises(TypeError, match="fence_on_flush"):
        config.from_dict(payload)


def test_machine_builds_from_roundtripped_config():
    from repro.cpu.machine import Machine
    cfg = roundtrip(config.MachineConfig(num_frames=1 << 10))
    machine = Machine(cfg)
    assert machine.config.num_frames == 1 << 10


def test_canonical_namespace_exports():
    for name in config.__all__:
        assert getattr(config, name) is not None
