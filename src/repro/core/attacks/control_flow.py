"""Control-Flow-Secret attacks (§4.2.3).

Two ways to read a secret-dependent branch direction, on top of the
machinery demonstrated elsewhere:

* :class:`ControlFlowCacheAttack` — when the two branch paths access
  *different cache lines* (Fig. 4c lines 3/5), the Replayer probes
  which line was touched in the replay window;
* the port-contention variant (different *computations* on the two
  paths) is :class:`~repro.core.attacks.port_contention.\
PortContentionAttack`, and the misprediction-based inference is
  :func:`~repro.core.attacks.mispredict_replay.infer_secret_by_priming`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.config import MachineConfig
from repro.core.analysis import classify_hits
from repro.core.recipes import (
    ReplayAction,
    ReplayDecision,
    WalkLocation,
    WalkTuning,
)
from repro.core.replayer import AttackEnvironment, Replayer
from repro.isa.program import Program, ProgramBuilder
from repro.kernel.process import Process
from repro.oracle.runtime import note_secret_write
from repro.victims.common import REPLAY_HANDLE, TRANSMIT


@dataclass(frozen=True)
class CacheCFVictim:
    """Fig. 4c with cache-line transmits: each path touches its own
    line of a public page."""

    program: Program
    handle_va: int
    secret_va: int
    lineB_va: int   # touched when secret == 0
    lineC_va: int   # touched when secret == 1


def setup_cache_cf_victim(process: Process, secret: int) -> CacheCFVictim:
    if secret not in (0, 1):
        raise ValueError("secret must be 0 or 1")
    handle_va = process.alloc(4096, "cfc-handle")
    data_va = process.alloc(4096, "cfc-data")
    if process.enclave is not None:
        secret_va = process.enclave.private_base + 64
    else:
        secret_va = process.alloc(4096, "cfc-secret")
    process.write(secret_va, secret)
    note_secret_write(process, secret_va)
    lineB_va = data_va          # line 0
    lineC_va = data_va + 512    # line 8
    b = ProgramBuilder("control-flow-cache")
    b.li("r1", handle_va)
    b.li("r2", secret_va)
    b.li("r3", lineB_va)
    b.li("r4", lineC_va)
    b.load("r5", "r1", 0, comment=REPLAY_HANDLE)
    b.load("r6", "r2", 0)
    b.li("r7", 0)
    b.bne("r6", "r7", "path_c")
    b.load("r8", "r3", 0, comment=f"{TRANSMIT}-B")
    b.jmp("done")
    b.label("path_c")
    b.load("r8", "r4", 0, comment=f"{TRANSMIT}-C")
    b.label("done")
    b.halt()
    return CacheCFVictim(b.build(), handle_va, secret_va, lineB_va,
                         lineC_va)


@dataclass
class ControlFlowCacheResult:
    secret: int
    guessed: Optional[int]
    replays: int
    hitsB: int
    hitsC: int

    @property
    def correct(self) -> bool:
        return self.guessed == self.secret


@dataclass
class ControlFlowCacheAttack:
    """Extract the branch direction via the Prime+Probe configuration
    (Monitor folded into the Replayer, §4.1.3)."""

    replays: int = 5
    walk_tuning: WalkTuning = field(default_factory=lambda: WalkTuning(
        upper=WalkLocation.PWC, leaf=WalkLocation.DRAM))
    #: The platform the victim runs on (e.g. with a defense mechanism
    #: installed), not an attack parameter.
    machine: Optional[MachineConfig] = None
    #: Cap on replay windows the platform grants (T-SGX / Déjà-Vu
    #: style budgets); ``None`` means the attacker-chosen ``replays``.
    replay_budget: Optional[int] = None

    def run(self, secret: int) -> ControlFlowCacheResult:
        rep = Replayer(AttackEnvironment.build(
            machine_config=self.machine))
        victim_proc = rep.create_victim_process("cf-victim")
        victim = setup_cache_cf_victim(victim_proc, secret)
        module = rep.module
        probe_addrs = [victim.lineB_va, victim.lineC_va]
        threshold = rep.machine.hierarchy.hit_latency(1)
        hits = {"B": 0, "C": 0}
        limit = self.replays if self.replay_budget is None \
            else min(self.replays, self.replay_budget)

        def attack_fn(event) -> ReplayDecision:
            lat = module.probe_lines(victim_proc, probe_addrs)
            touched = classify_hits(lat, threshold)
            if 0 in touched:
                hits["B"] += 1
            if 1 in touched:
                hits["C"] += 1
            cost = module.prime_lines(victim_proc, probe_addrs)
            if event.replay_no >= limit:
                return ReplayDecision(ReplayAction.RELEASE,
                                      extra_cost=cost)
            return ReplayDecision(ReplayAction.REPLAY, extra_cost=cost)

        recipe = module.provide_replay_handle(
            victim_proc, victim.handle_va, name="cf-cache",
            attack_function=attack_fn, walk_tuning=self.walk_tuning)
        rep.launch_victim(victim_proc, victim.program)
        module.prime_lines(victim_proc, probe_addrs)
        rep.arm(recipe)
        rep.run_until_victim_done(context_id=0, max_cycles=5_000_000)

        if hits["B"] == hits["C"]:
            guessed = None
        else:
            guessed = 0 if hits["B"] > hits["C"] else 1
        return ControlFlowCacheResult(secret=secret, guessed=guessed,
                                      replays=recipe.replays,
                                      hitsB=hits["B"], hitsC=hits["C"])
