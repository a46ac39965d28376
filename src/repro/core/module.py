"""The MicroScope kernel module (§5).

Implements the execution path of Figure 9: page faults whose PTE is
registered as under attack are redirected from the kernel's page-fault
handler to this module via a trampoline (its ``on_fault`` stage,
:mod:`repro.cpu.observer`).  The module owns the Attack Recipes,
performs the §5.2.2 attack operations (software page walks,
PTE/PWC/TLB/cache flushing, cache priming and probing, Monitor
signalling), and exposes the §5.2.3 user interface of Table 2::

    provide_replay_handle(addr)    provide_pivot(addr)
    provide_monitor_addr(addr)     initiate_page_walk(addr, length)
    initiate_page_fault(addr)
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.recipes import (
    AttackRecipe,
    ReplayAction,
    ReplayDecision,
    ReplayEvent,
    WalkLocation,
    WalkTuning,
)
from repro.cpu.traps import TrapAction
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.observability.stats import MicroScopeStats
from repro.observability.tracer import MICROSCOPE_TID
from repro.vm import address as vaddr
from repro.vm.faults import PageFault
from repro.vm.pagetable import SoftwareWalk

__all__ = ["MicroScopeConfig", "MicroScopeModule", "MicroScopeStats"]

# WalkLocation members as module constants: a read through the Enum
# class takes its slow attribute hook on every replay.
_PWC = WalkLocation.PWC
_L1 = WalkLocation.L1
_L2 = WalkLocation.L2
_L3 = WalkLocation.L3
_DRAM = WalkLocation.DRAM


@dataclass
class MicroScopeConfig:
    """Timing model of the module's kernel-side work."""

    #: Base cycles for trampoline entry + PTE bookkeeping per fault.
    fault_handler_cost: int = 2500
    #: Cycles per cache-line flush (clflush-ish).
    flush_cost: int = 40
    #: Cycles per probed line (timed reload).
    probe_cost: int = 60
    #: Cycles to invalidate one TLB entry.
    invlpg_cost: int = 30
    #: Probe measurement-noise probability: with this chance a probed
    #: line's latency reads as the wrong class (prefetchers, system
    #: activity, timer granularity on real hardware).  MicroScope's
    #: whole point is that replaying lets it vote this noise away; the
    #: single-shot baselines cannot.
    probe_noise: float = 0.0
    probe_noise_seed: int = 99


class MicroScopeModule:
    """Kernel-resident replay-attack engine."""

    def __init__(self, kernel: Kernel,
                 config: Optional[MicroScopeConfig] = None):
        self.kernel = kernel
        self.machine = kernel.machine
        self.config = config or MicroScopeConfig()
        self.stats = MicroScopeStats()
        #: (pid, vpn) -> (recipe, is_pivot)
        self._armed: Dict[Tuple[int, int], Tuple[AttackRecipe, bool]] = {}
        self.recipes: List[AttackRecipe] = []
        self._noise = random.Random(self.config.probe_noise_seed)
        self.machine.attach(self)
        self.machine.metrics.register_group(
            "microscope", self.stats, replace=True)
        self.machine.metrics.register_pull(
            "microscope.recipe", self._recipe_metrics, replace=True)

    def _recipe_metrics(self) -> Dict[str, int]:
        """Per-recipe replay/release progress for the metrics dump."""
        values: Dict[str, int] = {}
        for recipe in self.recipes:
            values[f"{recipe.name}.replays"] = recipe.replays
            values[f"{recipe.name}.pivot_faults"] = recipe.pivot_faults
            values[f"{recipe.name}.released"] = int(recipe.released)
        return values

    # ------------------------------------------------------------------
    # Table 2: the user interface (§5.2.3)
    # ------------------------------------------------------------------

    def provide_replay_handle(self, process: Process, addr: int,
                              **recipe_kwargs) -> AttackRecipe:
        """Register *addr* as a replay handle; returns the new recipe."""
        recipe = AttackRecipe(
            name=recipe_kwargs.pop("name", f"recipe-{len(self.recipes)}"),
            process=process, replay_handle_va=addr, **recipe_kwargs)
        self.recipes.append(recipe)
        return recipe

    def provide_pivot(self, recipe: AttackRecipe, addr: int):
        """Attach a pivot address to an existing recipe (§4.2.2)."""
        if vaddr.same_page(addr, recipe.replay_handle_va):
            raise ValueError("pivot must be on a different page than the "
                             "replay handle")
        recipe.pivot_va = addr

    def provide_monitor_addr(self, recipe: AttackRecipe, addr: int):
        """Add an address to probe for cache-based attacks."""
        recipe.monitor_addrs.append(addr)

    def initiate_page_walk(self, process: Process, addr: int,
                           length: int = 4):
        """Force the next access to *addr* to perform a page walk whose
        first ``4 - length`` levels hit the PWC and whose remaining
        *length* levels access memory (walk of *length*, Table 2)."""
        if not 1 <= length <= vaddr.NUM_LEVELS:
            raise ValueError("walk length must be 1..4")
        self.kernel.invlpg(process, addr)
        walk = process.page_tables.software_walk(addr)
        self.machine.pwc.invalidate_va(process.pcid, addr)
        for step in walk.steps[:-1]:
            if step.level < vaddr.NUM_LEVELS - length:
                self.machine.pwc.insert(process.pcid, addr, step.level,
                                        step.entry)
            else:
                self.machine.hierarchy.flush_line(step.entry_paddr)
        self.machine.hierarchy.flush_line(walk.steps[-1].entry_paddr)

    def initiate_page_fault(self, process: Process, addr: int):
        """Arrange for the next access to *addr* to minor-fault."""
        self.kernel.set_present(process, addr, False)
        self._flush_translation_path(process, addr)

    # ------------------------------------------------------------------
    # Attack operations (§5.2.2)
    # ------------------------------------------------------------------

    def _flush_translation_path(self, process: Process, addr: int
                                ) -> SoftwareWalk:
        """Flush PWC, TLB and the cached page-table entries for *addr*
        (Fig. 3, attack-setup step).  Returns the software walk that
        found those entries: flushing changes no page-table entry, so
        a caller that goes on to place the path reuses it.  The work
        costs ``len(walk.steps) * flush_cost + invlpg_cost`` cycles."""
        walk = process.page_tables.software_walk(addr)
        self.kernel.invlpg(process, addr)  # TLBs and PWC, as x86 INVLPG
        self.machine.hierarchy.flush_lines(walk.entry_paddrs())
        return walk

    def apply_walk_tuning(self, process: Process, addr: int,
                          tuning: WalkTuning) -> int:
        """Place the translation path per *tuning* (§4.1.2).  Returns
        the cycle cost of the placement work."""
        walk = self._flush_translation_path(process, addr)
        config = self.config
        cost = len(walk.steps) * config.flush_cost + config.invlpg_cost
        upper = tuning.upper
        for step in walk.steps[:-1]:
            if upper is _PWC:
                # The OS warms the PWC by touching a sibling address
                # that shares the upper walk path.
                self.machine.pwc.insert(process.pcid, addr, step.level,
                                        step.entry)
            elif upper is not _DRAM:
                self._place_line(step.entry_paddr, upper)
                cost += config.probe_cost
        if tuning.leaf is not _DRAM:
            self._place_line(walk.steps[-1].entry_paddr, tuning.leaf)
            cost += config.probe_cost
        return cost

    def _place_line(self, paddr: int, where: WalkLocation):
        """Install *paddr*'s line so a demand access hits at *where*."""
        hierarchy = self.machine.hierarchy
        hierarchy.flush_line(paddr)
        hierarchy.access(paddr)  # now resident in every level
        if where is _L1:
            return
        hierarchy.level_named("L1D").invalidate(paddr)
        if where is _L2:
            return
        hierarchy.level_named("L2").invalidate(paddr)
        if where is not _L3:
            raise ValueError(f"cannot place a line in {where}")

    def expected_walk_latency(self, tuning: WalkTuning) -> int:
        """Analytic walk latency for *tuning* (used to choose window
        sizes; mirrors the hardware walker's cost model)."""
        hierarchy = self.machine.hierarchy
        per_level = {
            WalkLocation.PWC: self.machine.pwc.hit_latency,
            WalkLocation.L1: hierarchy.hit_latency(0),
            WalkLocation.L2: hierarchy.hit_latency(1),
            WalkLocation.L3: hierarchy.hit_latency(2),
            WalkLocation.DRAM: hierarchy.hit_latency(-1),
        }
        upper = 3 * per_level[tuning.upper]
        leaf = per_level[tuning.leaf]
        overhead = vaddr.NUM_LEVELS  # walker per-level overhead
        return upper + leaf + overhead

    def prime_lines(self, process: Process, addrs) -> int:
        """Evict the given VAs from the whole hierarchy (Prime; §4.1.4
        step 5).  Returns cycle cost."""
        self.stats.primes += 1
        translate = process.translate_any
        paddrs = [translate(va) for va in addrs]
        self.machine.hierarchy.flush_lines(paddrs)
        return len(paddrs) * self.config.flush_cost

    def probe_lines(self, process: Process, addrs) -> List[int]:
        """Timed reload of the given VAs (Probe); returns latencies.

        Probing inevitably pulls the lines close to the core, which is
        why the Replayer re-primes before the next replay.  When
        ``probe_noise`` is configured, each measurement misreads with
        that probability (modelling real-hardware interference).
        """
        self.stats.probes += 1
        translate = process.translate_any
        access = self.machine.hierarchy.access
        latencies = [access(translate(va)) for va in addrs]
        if not self.config.probe_noise:
            return latencies
        hit = self.machine.hierarchy.hit_latency(0)
        miss = self.machine.hierarchy.hit_latency(-1)
        mid = (hit + miss) // 2
        noisy = []
        for latency in latencies:
            if self._noise.random() < self.config.probe_noise:
                latency = miss if latency <= mid else hit
            noisy.append(latency)
        return noisy

    def peek_lines(self, process: Process, addrs) -> List[int]:
        """Ground-truth (non-intrusive) cache level per VA, for
        experiment validation only — not available to a real attacker."""
        return [self.machine.hierarchy.peek_level(process.translate_any(va))
                for va in addrs]

    # ------------------------------------------------------------------
    # Arming and the fault trampoline (Fig. 9)
    # ------------------------------------------------------------------

    def arm(self, recipe: AttackRecipe):
        """Attack setup (Fig. 3 step 1): register the handle (and
        pivot) pages and make the handle's next access fault."""
        key = (recipe.process.pid, vaddr.vpn(recipe.replay_handle_va))
        self._armed[key] = (recipe, False)
        if recipe.pivot_va is not None:
            pivot_key = (recipe.process.pid, vaddr.vpn(recipe.pivot_va))
            self._armed[pivot_key] = (recipe, True)
        self.initiate_page_fault(recipe.process, recipe.replay_handle_va)
        self.apply_walk_tuning(recipe.process, recipe.replay_handle_va,
                               recipe.walk_tuning)

    def disarm(self, recipe: AttackRecipe):
        """Withdraw from the attack, restoring forward progress."""
        self.kernel.set_present(recipe.process, recipe.replay_handle_va,
                                True)
        if recipe.pivot_va is not None:
            self.kernel.set_present(recipe.process, recipe.pivot_va, True)
        for key, (armed_recipe, _pivot) in list(self._armed.items()):
            if armed_recipe is recipe:
                del self._armed[key]

    def on_fault(self, core, context, fault: PageFault
                 ) -> Optional[TrapAction]:
        """The trampoline: claims faults on pages under attack."""
        process = context.process
        if process is None:
            return None
        key = (process.pid, fault.vpn)
        armed = self._armed.get(key)
        if armed is None:
            return None
        recipe, is_pivot = armed
        if is_pivot:
            recipe.pivot_faults += 1
            self.stats.pivot_faults += 1
        else:
            recipe.replays += 1
            self.stats.handle_faults += 1
        event = ReplayEvent(recipe=recipe, context=context, fault=fault,
                            replay_no=recipe.replays,
                            is_pivot_fault=is_pivot)
        decision = recipe.decide(event)
        cost = self.config.fault_handler_cost + decision.extra_cost
        cost += self._apply_decision(recipe, fault, decision, is_pivot)
        tracer = self.machine.tracer
        if tracer is not None:
            tracer.complete(
                f"replay:{recipe.name}", self.machine.cycle, cost,
                cat="replay", tid=MICROSCOPE_TID,
                replay_no=recipe.replays, action=decision.action.name,
                pivot=is_pivot, ctx=context.context_id)
        return TrapAction(cost=cost,
                          halt=decision.action is ReplayAction.HALT)

    def _apply_decision(self, recipe: AttackRecipe, fault: PageFault,
                        decision: ReplayDecision, is_pivot: bool) -> int:
        process = recipe.process
        handle_va = recipe.replay_handle_va
        pivot_va = recipe.pivot_va
        faulting_va = pivot_va if is_pivot else handle_va
        other_va = handle_va if is_pivot else pivot_va
        cost = 0
        if decision.action is ReplayAction.REPLAY:
            # Leave the present bit clear; re-flush the translation
            # path so the next walk repeats (Fig. 3, timeline 2).
            cost += self.apply_walk_tuning(process, faulting_va,
                                           recipe.walk_tuning)
            if recipe.prime_monitor_addrs and recipe.monitor_addrs:
                cost += self.prime_lines(process, recipe.monitor_addrs)
        elif decision.action is ReplayAction.RELEASE:
            self.kernel.set_present(process, faulting_va, True)
            recipe.released = True
            self.stats.releases += 1
        elif decision.action is ReplayAction.PIVOT:
            if other_va is None:
                raise ValueError(f"{recipe.name}: PIVOT without a pivot "
                                 f"address")
            # §4.2.2: release the faulting page, arm the other one.
            self.kernel.set_present(process, faulting_va, True)
            self.kernel.set_present(process, other_va, False)
            cost += self.apply_walk_tuning(process, other_va,
                                           recipe.walk_tuning)
            if recipe.prime_monitor_addrs and recipe.monitor_addrs:
                cost += self.prime_lines(process, recipe.monitor_addrs)
        return cost

    # ------------------------------------------------------------------
    # snapshot support
    # ------------------------------------------------------------------

    def capture(self) -> tuple:
        """Clone module state.  Recipe objects are shared by reference
        (attack closures hold them); their mutable progress state is
        cloned per recipe."""
        return (
            self.stats.capture(),
            dict(self._armed),
            [(recipe, recipe.capture()) for recipe in self.recipes],
            self._noise.getstate(),
        )

    def restore(self, state: tuple):
        stats, armed, recipes, noise = state
        self.stats.restore(stats)
        self._armed = dict(armed)
        self.recipes = [recipe for recipe, _ in recipes]
        for recipe, recipe_state in recipes:
            recipe.restore(recipe_state)
        self._noise.setstate(noise)
