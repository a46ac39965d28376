"""The defense configurations a matrix column stands for.

Each §8 countermeasure acts on the attacks through one (or more) of
three *mechanism-level* levers, so the attack code never has to know
which defense it is facing:

* a **machine configuration**: a hardware mechanism installed through
  ``MachineConfig.defense`` (fences, Jamais Vu, Delay-on-Squash, SIMF,
  LEASH);
* a **replay budget** — how many squash-and-refetch windows the
  platform grants before the victim makes forward progress (T-SGX's
  ``N - 1``; Déjà Vu's masking bound ``budget_ticks // fault_cost``,
  the most an attacker can replay while staying indistinguishable
  from benign demand paging);
* a **victim transform** (T-SGX transaction wrapping, the
  PF-oblivious rewrite) — only meaningful for attacks that observe
  the victim's program shape, i.e. the controlled-channel baseline.

Déjà Vu additionally *detects*: :meth:`DefenseSpec.detected` flags a
cell whose replay count would have blown the reference-clock budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.config import DefenseHookConfig, MachineConfig
from repro.evaluation.defenses.tsgx import TSGX_THRESHOLD

#: Déjà Vu's reference-clock budget and the cost one replay (≈ one
#: page fault) adds to the timed region — the §8 masking arithmetic.
DEJAVU_BUDGET_TICKS = 12_000
DEJAVU_FAULT_COST = 3_000


@dataclass(frozen=True)
class DefenseSpec:
    """One matrix column: a defense reduced to mechanism knobs."""

    name: str
    #: One-line description for the generated docs.
    summary: str
    #: Where the paper discusses it.
    paper_ref: str
    #: The platform with the defense's hardware mechanism installed
    #: via ``MachineConfig.defense`` (None = stock platform).
    machine: Optional[MachineConfig] = None
    #: Replay windows the platform grants (None = unbounded).
    replay_budget: Optional[int] = None
    #: Victim rewrite the defense mandates: "tsgx" | "oblivious".
    victim_transform: Optional[str] = None
    #: The defense watches a reference clock and can raise a flag.
    detects: bool = False
    budget_ticks: Optional[int] = None
    fault_cost: Optional[int] = None
    #: Caveats propagated into every cell of this column.
    notes: Tuple[str, ...] = ()
    #: Prose for the generated docs/DEFENSES.md section: how the
    #: defense works in this model, a short paragraph.
    mechanism: str = ""
    #: (knob, meaning) pairs for the generated docs.
    knobs: Tuple[Tuple[str, str], ...] = ()
    #: A doccheck-executable python example for the generated docs
    #: (empty = no example section).
    example: str = ""

    def detected(self, replays: int) -> bool:
        """Would *replays* windows have blown the detection budget?"""
        if not self.detects or not self.fault_cost \
                or self.budget_ticks is None:
            return False
        return replays * self.fault_cost > self.budget_ticks


def _jamais_vu_spec(name: str, variant: str, decay: str,
                    knobs: Tuple[Tuple[str, str], ...]) -> DefenseSpec:
    return DefenseSpec(
        name=name,
        summary=f"Jamais Vu squash tracking ({variant} variant): "
                "squashed instructions may not re-execute "
                "speculatively.",
        paper_ref="Jamais Vu (Skarlatos et al., ASPLOS'21)",
        machine=MachineConfig(defense=DefenseHookConfig(
            scheme="jamais-vu", params={"variant": variant})),
        notes=("launch-time demand-paging squashes flag the window "
               "before replay 1, so in this model no window leaks",),
        mechanism=(
            "A per-context table remembers which program indices were "
            "squashed (its ``on_squash`` observer stage); its issue "
            "``gate`` holds a flagged instruction in the "
            "ready queue until every older ROB entry has completed "
            "without faulting, i.e. until it is no longer "
            f"speculative.  Tracking state decays by {decay}."),
        knobs=knobs,
        example=(
            "from repro.evaluation.defenses import evaluate_jamais_vu\n"
            "\n"
            f"report = evaluate_jamais_vu(replays=6, variant={variant!r})\n"
            "assert report.transmit_issues_undefended > 0\n"
            "assert report.transmit_issues_defended == 0\n"
            "assert report.replay_suppressed\n"))


def _specs() -> Dict[str, DefenseSpec]:
    return {spec.name: spec for spec in (
        DefenseSpec(
            name="none",
            summary="Undefended baseline platform.",
            paper_ref="§6",
            mechanism=(
                "The stock platform: no fences, no squash tracking, "
                "no flushing.  Every other column is measured "
                "against this baseline's accuracy."),
        ),
        DefenseSpec(
            name="fences",
            summary="Serialising fence after every pipeline flush: "
                    "replayed code cannot run ahead of the faulting "
                    "handle.",
            paper_ref="§8 'Fences on Pipeline Flushes'",
            machine=MachineConfig(defense=DefenseHookConfig(
                scheme="fences")),
            notes=("first (pre-flush) speculative window still "
                   "executes",),
            mechanism=(
                "The ``fences`` mechanism observes every squash and "
                "makes the first instruction fetched after a page "
                "fault, misprediction or memory-order violation "
                "serialising, so a replayed window cannot issue "
                "anything younger than the faulting instruction.  "
                "The pre-flush first "
                "window is the paper's documented leak — though in "
                "this model the victim's launch-time demand paging "
                "already squashes once before the attack window, so "
                "even that window arrives fenced."),
        ),
        DefenseSpec(
            name="dejavu",
            summary="Déjà Vu reference clock; attacker plays the "
                    "masking strategy and stays under the budget.",
            paper_ref="§8 'Déjà Vu'",
            replay_budget=DEJAVU_BUDGET_TICKS // DEJAVU_FAULT_COST,
            detects=True,
            budget_ticks=DEJAVU_BUDGET_TICKS,
            fault_cost=DEJAVU_FAULT_COST,
            notes=("attacker restricted to the masking budget of "
                   f"{DEJAVU_BUDGET_TICKS // DEJAVU_FAULT_COST} "
                   "replays; clock-thread starvation (§8) not "
                   "modelled",),
            mechanism=(
                "A TSX-protected reference clock times the victim; "
                "replays inflate the timed region.  The attacker "
                "plays the §8 masking strategy — stay under "
                "``budget_ticks`` — so the matrix grants each cell "
                "``budget_ticks // fault_cost`` replay windows and "
                "flags the cell *detected* when an attack would need "
                "more."),
            knobs=(("budget_ticks",
                    "reference-clock budget before the victim raises "
                    "a flag"),
                   ("fault_cost",
                    "ticks one replayed page fault adds to the timed "
                    "region")),
        ),
        DefenseSpec(
            name="tsgx",
            summary="T-SGX transaction wrapping: page faults abort "
                    "without notifying the OS; the fallback "
                    "terminates after N failed transactions.",
            paper_ref="§8 'Page Fault Protection Schemes'",
            replay_budget=TSGX_THRESHOLD - 1,
            victim_transform="tsgx",
            notes=(f"N-1 = {TSGX_THRESHOLD - 1} replay windows "
                   "remain before termination (the paper's "
                   "observation)",),
            mechanism=(
                "The victim runs inside TSX transactions; a page "
                "fault aborts the transaction without notifying the "
                "OS, and the fallback path terminates the enclave "
                "after N consecutive aborts.  The attacker still "
                "gets the N-1 windows before termination — the "
                "paper's observation that replay survives in "
                "bounded form."),
            knobs=(("TSGX_THRESHOLD",
                    "consecutive failed transactions before the "
                    "fallback terminates the victim"),),
        ),
        DefenseSpec(
            name="pf-oblivious",
            summary="PF-oblivious rewrite: both branch sides touch "
                    "the same pages, erasing the fault-sequence "
                    "signal.",
            paper_ref="§8 'Page Fault Protection Schemes'",
            victim_transform="oblivious",
            notes=("adds memory accesses, i.e. *more* replay "
                   "handles for MicroScope (§8)",),
            mechanism=(
                "The victim is rewritten so both sides of every "
                "secret-dependent branch touch the same pages, "
                "erasing the page-fault-sequence channel the "
                "controlled-channel baseline reads.  MicroScope is "
                "unimpressed: the added accesses are *more* replay "
                "handles, and the cache/port channels still "
                "resolve inside one page."),
        ),
        _jamais_vu_spec(
            "jv-counter", "counter",
            "a per-instruction saturating counter — incremented on "
            "squash, decremented on retire",
            (("variant", "'counter'"),
             ("saturate",
              "counter ceiling; replay pressure keeps an "
              "instruction flagged until this many clean retires"))),
        _jamais_vu_spec(
            "jv-epoch", "epoch",
            "bulk-clearing the table every ``epoch_retires`` "
            "architectural retirements (cheap hardware, coarse "
            "forgiveness)",
            (("variant", "'epoch'"),
             ("epoch_retires",
              "retirements between bulk table clears"))),
        _jamais_vu_spec(
            "jv-cor", "clear-on-retire",
            "dropping an instruction's flag the moment it retires "
            "(precise per-entry clearing)",
            (("variant", "'clear-on-retire'"),)),
        DefenseSpec(
            name="delay-on-squash",
            summary="Delay-on-Squash: after any pipeline flush, "
                    "side-channel-capable instructions may not "
                    "execute speculatively until the shadow decays.",
            paper_ref="Sakalis et al. (arXiv:2103.10692)",
            machine=MachineConfig(defense=DefenseHookConfig(
                scheme="delay-on-squash")),
            notes=("sustained replay pressure keeps the core in the "
                   "shadow permanently; a benign misprediction costs "
                   "one short serialised stretch",),
            mechanism=(
                "Any squash arms a per-context *shadow* lasting "
                "``shadow_retires`` architectural retirements.  "
                "Inside the shadow, instructions in the "
                "side-channel-capable classes (loads, stores, "
                "multiplies, divides) issue only once they are no "
                "longer speculative — replayed transmit instructions "
                "therefore never execute speculatively, and release "
                "in program order."),
            knobs=(("shadow_retires",
                    "retirements without a squash before the shadow "
                    "lifts"),
                   ("classes",
                    "op classes gated inside the shadow")),
            example=(
                "from repro.evaluation.defenses import "
                "evaluate_delay_on_squash\n"
                "\n"
                "report = evaluate_delay_on_squash(replays=6)\n"
                "assert report.transmit_issues_undefended > 0\n"
                "assert report.transmit_issues_defended == 0\n"
                "assert report.replay_suppressed\n"),
        ),
        DefenseSpec(
            name="simf",
            summary="SIMF-style flush of core-private caches and "
                    "TLBs on every kernel entry.",
            paper_ref="SIMF (arXiv:2011.10249)",
            machine=MachineConfig(defense=DefenseHookConfig(
                scheme="simf")),
            notes=("erases residue rather than restricting "
                   "speculation; the per-entry cold restart it "
                   "imposes also breaks the port channel's timing "
                   "alignment in this model",),
            mechanism=(
                "Every kernel entry — page-fault handling, interrupt "
                "delivery — flushes the private cache hierarchy and "
                "the TLBs before the handler can probe, so the "
                "speculative window's cache residue is gone by the "
                "time the attacker measures.  Speculation itself is "
                "unrestricted: windows execute, the Prime+Probe "
                "readout just comes back empty."),
            knobs=(("flush_tlbs",
                    "also flush the TLB hierarchy on kernel entry"),),
            example=(
                "from repro.evaluation.defenses import evaluate_simf\n"
                "\n"
                "report = evaluate_simf(secret=1, replays=4)\n"
                "assert report.undefended_guess == 1\n"
                "assert report.residue_erased\n"),
        ),
        DefenseSpec(
            name="leash",
            summary="LEASH-style reactive throttling: contexts whose "
                    "squash rate looks like a replay storm lose half "
                    "their issue bandwidth.",
            paper_ref="LEASH (arXiv:2109.03998)",
            machine=MachineConfig(defense=DefenseHookConfig(
                scheme="leash")),
            notes=("a throttler rate-limits the storm but erases no "
                   "residue: channels that survive at half bandwidth "
                   "still leak",),
            mechanism=(
                "A detector samples each context's ``squash_events`` "
                "counter (from the machine's metrics registry) every "
                "``window_cycles`` cycles and applies two-threshold "
                "hysteresis: a squash rate ≥ ``hi`` engages the "
                "throttle, ≤ ``lo`` releases it.  While throttled, "
                "the context may issue at most ``issue_width // "
                "throttle_factor`` instructions per cycle."),
            knobs=(("hi", "squashes per window that engage the "
                          "throttle"),
                   ("lo", "squashes per window that release it"),
                   ("window_cycles", "detector sampling period"),
                   ("throttle_factor",
                    "issue-bandwidth divisor while throttled")),
            example=(
                "from repro.evaluation.defenses import evaluate_leash\n"
                "\n"
                "report = evaluate_leash()\n"
                "assert report.hysteresis_observed\n"
                "assert report.trace[0] and not report.trace[-1]\n"),
        ),
    )}


#: Registry of every defense column, in canonical matrix order.
DEFENSES: Dict[str, DefenseSpec] = _specs()


def defense_names() -> Tuple[str, ...]:
    """Canonical column order, baseline first."""
    return tuple(DEFENSES)


def get_defense(name: str) -> DefenseSpec:
    """Look up a registered defense; raises ``KeyError`` with the
    valid names otherwise."""
    try:
        return DEFENSES[name]
    except KeyError:
        raise KeyError(f"unknown defense {name!r}; registered: "
                       f"{', '.join(DEFENSES)}") from None
