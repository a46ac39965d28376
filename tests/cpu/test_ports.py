from repro.cpu.config import default_ports
from repro.cpu.ports import PortSet


def make_ports():
    return PortSet(default_ports(), frozenset({"div"}))


def test_class_routing():
    ports = make_ports()
    port = ports.try_issue(0, "load", 4)
    assert port.name in ("p2", "p3")
    port = ports.try_issue(0, "div", 24)
    assert port.name == "p0"


def test_one_issue_per_port_per_cycle():
    ports = make_ports()
    first = ports.try_issue(0, "load", 4)
    second = ports.try_issue(0, "load", 4)
    third = ports.try_issue(0, "load", 4)
    assert first and second
    assert first.name != second.name
    assert third is None  # both load ports used this cycle
    ports.new_cycle()
    assert ports.try_issue(1, "load", 4) is not None


def test_non_pipelined_divider_occupies_port():
    ports = make_ports()
    assert ports.try_issue(0, "div", 24) is not None
    ports.new_cycle()
    assert ports.try_issue(1, "div", 24) is None   # busy until 24
    ports.new_cycle()
    assert ports.try_issue(24, "div", 24) is not None


def test_pipelined_ops_do_not_occupy():
    ports = make_ports()
    assert ports.try_issue(0, "mul", 3) is not None
    ports.new_cycle()
    assert ports.try_issue(1, "mul", 3) is not None


def test_alu_falls_back_across_ports():
    ports = make_ports()
    names = set()
    for _ in range(4):
        port = ports.try_issue(0, "alu", 1)
        assert port is not None
        names.add(port.name)
    assert names == {"p0", "p1", "p5", "p6"}
    assert ports.try_issue(0, "alu", 1) is None


def test_divider_blocks_alu_on_port0_only():
    ports = make_ports()
    ports.try_issue(0, "div", 24)
    ports.new_cycle()
    # p0 is busy, but p1/p5/p6 still take ALU ops.
    assert ports.try_issue(1, "alu", 1).name != "p0"


def test_unknown_class_returns_none():
    ports = make_ports()
    assert ports.try_issue(0, "warp", 1) is None

