"""SGX-style enclaves.

The model captures exactly the properties MicroScope needs (§2.3):

* an enclave is a reverse sandbox inside a user process: a region of
  virtual memory that supervisor software must not read or write;
* the OS still performs demand paging for enclave pages, so page
  faults during enclave execution reach the kernel — but only as an
  *asynchronous exit* (AEX) carrying the page-aligned faulting address;
* on enclave entry/exit the hardware may flush the branch predictor
  (the countermeasure of [12] that §4.3 works around);
* integrity checks ensure the OS loads the right page back for the
  right VPN — MicroScope never remaps pages, so these checks pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cpu.context import HardwareContext
from repro.isa.program import Program
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.sgx.attestation import measure_program
from repro.vm import address as vaddr
from repro.vm.faults import PageFault


class EnclaveProtectionError(Exception):
    """Raised when supervisor software tries to introspect an enclave."""


@dataclass
class AEXRecord:
    """One asynchronous enclave exit, as visible to the OS."""

    cycle: int
    page_aligned_va: int   # low 12 bits masked: all SGX reveals
    is_write: bool


@dataclass
class EnclaveConfig:
    #: Flush the branch predictor at enclave entry and exit (the
    #: countermeasure against BranchScope-style attacks; see §4.2.3).
    flush_predictor_on_boundary: bool = True
    #: Size of the enclave's private data region in bytes.
    private_size: int = 16 * vaddr.PAGE_SIZE


class Enclave:
    """One enclave instance inside a host process."""

    def __init__(self, enclave_id: int, kernel: Kernel, process: Process,
                 config: Optional[EnclaveConfig] = None,
                 name: str = ""):
        self.enclave_id = enclave_id
        self.kernel = kernel
        self.process = process
        self.config = config or EnclaveConfig()
        self.name = name or f"enclave{enclave_id}"
        self.private_base = process.alloc(
            self.config.private_size, name=f"{self.name}-private")
        self.private_size = self.config.private_size
        self.measurement: Optional[str] = None
        self.entered = False
        self.aex_log: List[AEXRecord] = []
        process.enclave = self

    # --- memory classification --------------------------------------------

    def owns(self, va: int) -> bool:
        """Is *va* inside the enclave's private region?"""
        return self.private_base <= va < self.private_base + \
            self.private_size

    def check_supervisor_access(self, va: int):
        """Raise :class:`EnclaveProtectionError` if the OS tries to
        read or write private enclave memory."""
        if self.owns(va):
            raise EnclaveProtectionError(
                f"supervisor access to enclave-private {va:#x} denied")

    # --- lifecycle -----------------------------------------------------------

    def load_code(self, program: Program):
        """ECREATE/EADD/EINIT rolled into one: measure the code."""
        self.measurement = measure_program(program)

    def enter(self, context: HardwareContext, program: Program,
              start_index: int = 0):
        """EENTER: start running enclave code on *context*."""
        if self.measurement is None:
            self.load_code(program)
        elif self.measurement != measure_program(program):
            raise EnclaveProtectionError(
                "program does not match enclave measurement")
        if self.config.flush_predictor_on_boundary:
            self.kernel.machine.core.predictor.flush()
        context.load_program(program, self.process, start_index)
        self.entered = True

    def exit(self):
        """EEXIT: leave the enclave."""
        if self.config.flush_predictor_on_boundary:
            self.kernel.machine.core.predictor.flush()
        self.entered = False

    # --- AEX ---------------------------------------------------------------

    def record_aex(self, fault: PageFault, cycle: int):
        """Record the OS-visible view of a fault during enclave
        execution: only the page-aligned VA is revealed (§2.3)."""
        self.aex_log.append(AEXRecord(
            cycle=cycle, page_aligned_va=fault.page_aligned_va,
            is_write=fault.is_write))

    @property
    def aex_count(self) -> int:
        return len(self.aex_log)

    # --- snapshot support -------------------------------------------------

    def capture(self) -> tuple:
        return (self.measurement, self.entered,
                [AEXRecord(r.cycle, r.page_aligned_va, r.is_write)
                 for r in self.aex_log])

    def restore(self, state: tuple):
        measurement, entered, aex_log = state
        self.measurement = measurement
        self.entered = entered
        self.aex_log = [AEXRecord(r.cycle, r.page_aligned_va, r.is_write)
                        for r in aex_log]


class SGXPlatform:
    """Factory/registry for enclaves, plus the supervisor access guard.

    Attacks in this repository interact with victim memory *only*
    through :meth:`supervisor_read` / :meth:`supervisor_write`, which
    enforce the SGX isolation guarantee — making it explicit that the
    attack extracts secrets via side channels, never by introspection.
    """

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.enclaves: List[Enclave] = []
        kernel.machine.attach(self)

    def create_enclave(self, process: Process,
                       config: Optional[EnclaveConfig] = None,
                       name: str = "") -> Enclave:
        enclave = Enclave(len(self.enclaves) + 1, self.kernel, process,
                          config, name)
        self.enclaves.append(enclave)
        return enclave

    def on_fault(self, core, context, fault: PageFault):
        """Record AEXs for bookkeeping; never claims the fault, so the
        regular (possibly MicroScope-claimed) handling still runs."""
        process = context.process
        if process is not None and process.enclave is not None:
            process.enclave.record_aex(fault, self.kernel.machine.cycle)
        return None

    # --- guarded supervisor access ------------------------------------------

    def supervisor_read(self, process: Process, va: int, width: int = 8):
        if process.enclave is not None:
            process.enclave.check_supervisor_access(va)
        return process.read(va, width)

    def supervisor_write(self, process: Process, va: int, value,
                         width: int = 8):
        if process.enclave is not None:
            process.enclave.check_supervisor_access(va)
        process.write(va, value, width)

    # --- snapshot support -------------------------------------------------

    def capture(self) -> tuple:
        """Enclave objects are shared by reference (processes point at
        them); their mutable state is cloned per enclave."""
        return tuple((enclave, enclave.capture())
                     for enclave in self.enclaves)

    def restore(self, state: tuple):
        self.enclaves = [enclave for enclave, _ in state]
        for enclave, enclave_state in state:
            enclave.restore(enclave_state)
