"""CPU substrate: the out-of-order SMT core and the machine wrapper."""

from repro.cpu.branch import BranchPredictor
from repro.cpu.config import CoreConfig, PortConfig, default_latencies, default_ports, op_class
from repro.cpu.context import ContextState, ContextStats, HardwareContext
from repro.cpu.core import Core
from repro.cpu.machine import Machine
from repro.cpu.observer import Observer, UnitIssueCounter
from repro.cpu.ports import Port, PortSet
from repro.cpu.rob import EntryState, ReorderBuffer, ROBEntry
from repro.cpu.traps import PanicTrapHandler, TrapAction, TrapHandler

__all__ = [
    "BranchPredictor",
    "CoreConfig",
    "PortConfig",
    "default_latencies",
    "default_ports",
    "op_class",
    "ContextState",
    "ContextStats",
    "HardwareContext",
    "Core",
    "Machine",
    "Observer",
    "UnitIssueCounter",
    "Port",
    "PortSet",
    "EntryState",
    "ReorderBuffer",
    "ROBEntry",
    "PanicTrapHandler",
    "TrapAction",
    "TrapHandler",
]
