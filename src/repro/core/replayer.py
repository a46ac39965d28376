"""The Replayer: attack orchestration (Fig. 3).

The Replayer is the untrusted-OS actor of the paper.  It owns the
machine, the kernel and the MicroScope module, sets up victims inside
enclaves, arms attack recipes, runs the simulation, and harvests the
Monitor's measurements.  Concrete attacks in
:mod:`repro.core.attacks` build on this driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.config import MachineConfig
from repro.core.module import MicroScopeConfig, MicroScopeModule
from repro.core.recipes import AttackRecipe
from repro.cpu.machine import Machine
from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.process import Process
from repro.kernel.shm import SharedChannel
from repro.oracle.runtime import note_machine as _oracle_note_machine
from repro.sgx.enclave import EnclaveConfig, SGXPlatform
from repro.snapshot import MachineSnapshot


@dataclass
class AttackEnvironment:
    """A fully wired platform: machine + kernel + SGX + MicroScope."""

    machine: Machine
    kernel: Kernel
    sgx: SGXPlatform
    module: MicroScopeModule

    @classmethod
    def build(cls, machine_config: Optional[MachineConfig] = None,
              kernel_config: Optional[KernelConfig] = None,
              module_config: Optional[MicroScopeConfig] = None
              ) -> "AttackEnvironment":
        machine = Machine(machine_config)
        kernel = Kernel(machine, kernel_config)
        sgx = SGXPlatform(kernel)
        module = MicroScopeModule(kernel, module_config)
        return cls(machine, kernel, sgx, module)


class Replayer:
    """Drives a victim (and optionally a monitor) under replay.

    Every replay window is simulated: :meth:`run_until_released` runs
    the machine until the armed recipe releases the victim.
    :meth:`checkpoint` and :meth:`rewind` fork repeated trials from one
    captured platform state.
    """

    def __init__(self, env: Optional[AttackEnvironment] = None,
                 **env_kwargs):
        self.env = env or AttackEnvironment.build(**env_kwargs)
        # Warm-started environments were built outside any oracle
        # activation; (re)offer the machine so an active oracle's hub
        # attaches before the trial runs (idempotent, no-op when idle).
        _oracle_note_machine(self.env.machine)
        self.machine = self.env.machine
        self.kernel = self.env.kernel
        self.sgx = self.env.sgx
        self.module = self.env.module
        self._checkpoint: Optional[MachineSnapshot] = None

    # --- checkpoint / rewind ----------------------------------------------

    def checkpoint(self) -> MachineSnapshot:
        """Snapshot the whole platform (typically right after victim
        launch) so every subsequent trial can fork from it."""
        self._checkpoint = MachineSnapshot.take(self.env)
        return self._checkpoint

    def rewind(self, snapshot: Optional[MachineSnapshot] = None
               ) -> MachineSnapshot:
        """Restore the platform to *snapshot* (default: the last
        :meth:`checkpoint`).  The snapshot survives, so rewinding many
        times replays from the identical starting state."""
        snapshot = snapshot if snapshot is not None else self._checkpoint
        if snapshot is None:
            raise RuntimeError("rewind() without a prior checkpoint()")
        snapshot.restore(self.env)
        return snapshot

    # --- setup helpers ---------------------------------------------------

    def create_victim_process(self, name: str = "victim",
                              enclave: bool = True,
                              enclave_config: Optional[EnclaveConfig] = None
                              ) -> Process:
        process = self.kernel.create_process(name)
        if enclave:
            self.sgx.create_enclave(process, enclave_config,
                                    name=f"{name}-enclave")
        return process

    def create_monitor_process(self, name: str = "monitor") -> Process:
        return self.kernel.create_process(name)

    def launch_victim(self, process: Process, program,
                      context_id: int = 0):
        """Enter the enclave (when present) and schedule the victim."""
        if process.enclave is not None:
            process.enclave.enter(self.machine.contexts[context_id],
                                  program)
        else:
            self.kernel.launch(process, program, context_id)

    def launch_monitor(self, process: Process, program,
                       context_id: int = 1):
        self.kernel.launch(process, program, context_id)

    def shared_channel(self, *processes: Process) -> SharedChannel:
        channel = SharedChannel(self.kernel)
        for process in processes:
            channel.map_into(process)
        return channel

    # --- run control -------------------------------------------------------

    def run(self, max_cycles: int = 5_000_000,
            until: Optional[Callable[[Machine], bool]] = None) -> int:
        return self.machine.run(max_cycles, until)

    def run_until_released(self, recipe: AttackRecipe,
                           max_cycles: int = 5_000_000) -> int:
        """Run until the recipe releases the victim (or budget ends)."""
        return self.machine.run(
            max_cycles, until=lambda _m: recipe.released)

    def run_until_victim_done(self, context_id: int = 0,
                              max_cycles: int = 5_000_000) -> int:
        context = self.machine.contexts[context_id]
        return self.machine.run(max_cycles,
                                until=lambda _m: context.finished())

    # --- convenience passthroughs -----------------------------------------

    def arm(self, recipe: AttackRecipe):
        self.module.arm(recipe)

    def disarm(self, recipe: AttackRecipe):
        self.module.disarm(recipe)
