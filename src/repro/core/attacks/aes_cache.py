"""The AES cache attack of §4.4 / §6.2 (Figure 11).

The victim decrypts one block with OpenSSL-style table AES inside an
enclave.  The Replayer single-steps the decryption with the §4.2.2
handle/pivot ping-pong:

* the ``rk`` round-key page and the ``Td0`` table page alternate as
  the non-present page, so execution advances one fault at a time —
  ``rk[4+s]`` faults and ``Td0`` faults bracket every statement;
* at every fault the Replayer (acting as the Monitor, second
  configuration of §4.1.3) probes all 64 Td cache lines and, before
  resuming, primes them back to DRAM; each probe therefore reveals
  exactly the lines touched (architecturally or speculatively) since
  the previous fault;
* every fault site is replayed several times, so each window is
  measured repeatedly — the denoising;
* for Figure 11 the first window is entered *unprimed* ("Replay 0"),
  showing the mixed L1/L2-L3/DRAM latencies the paper plots, before
  the primed "Replay 1"/"Replay 2" give the clean separation.

Everything is extracted in a **single logical run** of the victim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.core.analysis import classify_hits, majority_lines
from repro.core.module import MicroScopeConfig
from repro.core.recipes import (
    ReplayAction,
    ReplayDecision,
    ReplayEvent,
    WalkLocation,
    WalkTuning,
)
from repro.core.replayer import AttackEnvironment, Replayer
from repro.crypto.aes import decrypt_block_traced, rounds_for_key
from repro.crypto.aes_tables import LINES_PER_TABLE
from repro.snapshot import warm_key, warm_start
from repro.victims.aes_round import AESVictim, setup_aes_victim


@dataclass
class ProbeRecord:
    """One probe of all Td tables at one fault."""

    step: int                 # fault-site ordinal (0 = first rk window)
    kind: str                 # "rk" or "td0" (which page faulted)
    replay: int               # replay number at this site (0-based)
    #: latencies[table][line]
    latencies: List[List[int]]

    def hit_lines(self, table: int, hit_threshold: int) -> List[int]:
        return classify_hits(self.latencies[table], hit_threshold)


@dataclass
class ExtractionResult:
    """Outcome of a full single-run extraction."""

    ciphertext: bytes
    probes: List[ProbeRecord]
    #: Per table: union of lines observed hit across probes.
    extracted_lines: List[Set[int]]
    #: Ground truth per table (from the instrumented software AES).
    truth_lines: List[Set[int]]
    replays_total: int
    plaintext_ok: bool

    @property
    def exact_union(self) -> bool:
        return all(self.extracted_lines[t] == self.truth_lines[t]
                   for t in range(4))

    def union_recall(self) -> float:
        truth = sum(len(s) for s in self.truth_lines)
        if truth == 0:
            return 1.0
        found = sum(len(self.extracted_lines[t] & self.truth_lines[t])
                    for t in range(4))
        return found / truth

    def union_precision(self) -> float:
        found = sum(len(s) for s in self.extracted_lines)
        if found == 0:
            return 1.0
        true_found = sum(len(self.extracted_lines[t] & self.truth_lines[t])
                         for t in range(4))
        return true_found / found


@dataclass
class Figure11Result:
    """The data behind Figure 11: per-replay latency of each Td1 line
    in the first rk-handle window of round 1."""

    replay_latencies: List[List[int]]   # [replay][line] for Td1
    hit_threshold: int
    truth_lines: List[int]              # Td1 lines truly accessed in
                                        # the probed window
    extracted_lines: List[int]          # hit lines in primed replays

    @property
    def noise_free(self) -> bool:
        return sorted(self.extracted_lines) == sorted(self.truth_lines)


class AESCacheAttack:
    """Driver for the §4.4 attack."""

    def __init__(self, key: bytes, ciphertext: bytes,
                 replays_per_site: int = 3,
                 walk_tuning: Optional[WalkTuning] = None,
                 fault_handler_cost: int = 2500):
        self.key = key
        self.ciphertext = ciphertext
        self.replays_per_site = replays_per_site
        self.walk_tuning = walk_tuning or WalkTuning(
            upper=WalkLocation.PWC, leaf=WalkLocation.DRAM)
        self.fault_handler_cost = fault_handler_cost
        self.rounds = rounds_for_key(key)

    # ------------------------------------------------------------------

    def _build_launched_environment(self):
        """Builder for the warm-start cache: a fully launched (but not
        yet armed or stepped) AES victim.  The snapshot is taken before
        any recipe exists, so each trial's stepper starts clean."""
        env = AttackEnvironment.build(module_config=MicroScopeConfig(
            fault_handler_cost=self.fault_handler_cost))
        rep = Replayer(env)
        victim_proc = rep.create_victim_process("aes-victim")
        victim = setup_aes_victim(victim_proc, self.key, self.ciphertext)
        rep.launch_victim(victim_proc, victim.program)
        return env, (victim_proc, victim)

    def _setup(self, prime_before_first: bool
               ) -> Tuple[Replayer, AESVictim, "_Stepper"]:
        # The launched environment depends only on the key (the program
        # embeds addresses and round count, never the input block), so
        # per-ciphertext trials share one snapshot and just rewrite the
        # four input words — the §4.4 warm start.
        env, (victim_proc, victim) = warm_start(
            warm_key(self, "_build_launched_environment",
                     reads=("key", "ciphertext", "fault_handler_cost"),
                     rewrites=("ciphertext",)),
            self._build_launched_environment)
        victim.write_ciphertext(victim_proc, self.ciphertext)
        rep = Replayer(env)
        stepper = _Stepper(rep, victim_proc, victim, self.walk_tuning,
                           self.replays_per_site, prime_before_first)
        stepper.arm()
        return rep, victim, stepper

    def hit_threshold(self, rep: Replayer) -> int:
        """Latency at or below which a probe counts as an L1/L2 hit."""
        return rep.machine.hierarchy.hit_latency(1)

    def run_figure11(self) -> Figure11Result:
        """Reproduce Figure 11: three replays of the first rk-handle
        window of round 1, Td1 line latencies per replay."""
        rep, victim, stepper = self._setup(prime_before_first=False)
        stepper.stop_after_rk_sites = 1
        rep.machine.run(50_000_000, until=lambda _m: stepper.done)
        threshold = self.hit_threshold(rep)
        window = [p for p in stepper.probes if p.kind == "rk"]
        replay_lat = [p.latencies[1] for p in window]
        primed = [p for p in window if p.replay >= 1]
        extracted = majority_lines(
            [p.hit_lines(1, threshold) for p in primed],
            quorum=max(1, len(primed)))
        truth = self._window_truth_lines(table=1, round_no=1,
                                         statements=(1, 2, 3))
        return Figure11Result(replay_latencies=replay_lat,
                              hit_threshold=threshold,
                              truth_lines=truth,
                              extracted_lines=extracted)

    def run_full_extraction(self) -> ExtractionResult:
        """Single-run extraction of every Td access of the decryption."""
        rep, victim, stepper = self._setup(prime_before_first=True)
        rep.machine.run(200_000_000, until=lambda _m: stepper.done)
        # Let the victim finish and validate functional correctness.
        rep.run_until_victim_done(context_id=0, max_cycles=2_000_000)
        expected_plain, truth_accesses = decrypt_block_traced(
            self.key, self.ciphertext)
        threshold = self.hit_threshold(rep)
        extracted: List[Set[int]] = [set() for _ in range(4)]
        for probe in stepper.probes:
            for table in range(4):
                extracted[table].update(probe.hit_lines(table, threshold))
        truth: List[Set[int]] = [set() for _ in range(4)]
        for access in truth_accesses:
            truth[access.table].add(access.line)
        plaintext_ok = victim.read_plaintext(
            rep.kernel.processes[0]) == expected_plain
        return ExtractionResult(
            ciphertext=self.ciphertext, probes=stepper.probes,
            extracted_lines=extracted, truth_lines=truth,
            replays_total=len(stepper.probes),
            plaintext_ok=plaintext_ok)

    def _window_truth_lines(self, table: int, round_no: int,
                            statements: Sequence[int]) -> List[int]:
        """Ground-truth lines of *table* for given statements of
        *round_no*."""
        _plain, accesses = decrypt_block_traced(self.key, self.ciphertext)
        lines: Set[int] = set()
        for access in accesses:
            if (access.round == round_no
                    and access.statement in statements
                    and access.table == table):
                lines.add(access.line)
        return sorted(lines)


class _Stepper:
    """The rk/Td0 ping-pong state machine of §4.4.

    Fault sequence: prologue rk fault -> pivot to Td0 -> t0's Td0 fault
    (probed, replayed) -> pivot back -> rk[4] fault (probed, replayed)
    -> pivot -> t1's Td0 fault -> ... until all middle rounds are
    stepped, then release.
    """

    def __init__(self, rep: Replayer, process, victim: AESVictim,
                 walk_tuning: WalkTuning, replays_per_site: int,
                 prime_before_first: bool):
        self.rep = rep
        self.process = process
        self.victim = victim
        self.replays_per_site = replays_per_site
        self.prime_before_first = prime_before_first
        self.probes: List[ProbeRecord] = []
        self.rk_sites = 0           # completed rk-handle fault sites
        self.site_counter = 0       # all probed fault sites
        self.stop_after_rk_sites: Optional[int] = None
        self.done = False
        self._replay_at_site = 0
        self._seen_prologue_fault = False
        self._all_td_addrs = [
            victim.td_vas[t] + 64 * line
            for t in range(4) for line in range(LINES_PER_TABLE)]
        self.recipe = rep.module.provide_replay_handle(
            process, victim.rk_va, name="aes-stepper",
            attack_function=self._on_handle_fault,
            pivot_function=self._on_pivot_fault,
            walk_tuning=walk_tuning)
        rep.module.provide_pivot(self.recipe, victim.td_vas[0])
        #: rk accesses per middle round = 4; AES-128: 36 sites.
        self.total_rk_sites = 4 * (victim.rounds - 1)

    def arm(self):
        self.rep.arm(self.recipe)

    # --- probing -----------------------------------------------------------

    def _probe(self, kind: str):
        module = self.rep.module
        flat = module.probe_lines(self.process, self._all_td_addrs)
        latencies = [flat[t * LINES_PER_TABLE:(t + 1) * LINES_PER_TABLE]
                     for t in range(4)]
        self.probes.append(ProbeRecord(
            step=self.site_counter, kind=kind,
            replay=self._replay_at_site, latencies=latencies))

    def _prime(self) -> int:
        return self.rep.module.prime_lines(self.process,
                                           self._all_td_addrs)

    # --- fault callbacks ----------------------------------------------------

    def _on_handle_fault(self, event: ReplayEvent) -> ReplayDecision:
        if not self._seen_prologue_fault:
            # The pre-loop rk fault: no Td access can have executed yet
            # (all are data-dependent on these rk loads), so pivot the
            # attack into the round loop.  Prime so the very next probe
            # is clean (unless reproducing Fig. 11's Replay 0).
            self._seen_prologue_fault = True
            cost = self._prime() if self.prime_before_first else 0
            return ReplayDecision(ReplayAction.PIVOT, extra_cost=cost)
        if self.done:
            return ReplayDecision(ReplayAction.RELEASE)
        return self._step_site("rk")

    def _on_pivot_fault(self, event: ReplayEvent) -> ReplayDecision:
        if self.done:
            return ReplayDecision(ReplayAction.RELEASE)
        if not self._seen_prologue_fault:
            # Defensive: should not happen — pivot armed after prologue.
            return ReplayDecision(ReplayAction.PIVOT)
        return self._step_site("td0")

    def _step_site(self, kind: str) -> ReplayDecision:
        self._probe(kind)
        self._replay_at_site += 1
        if self._replay_at_site < self.replays_per_site:
            cost = self._prime()
            return ReplayDecision(ReplayAction.REPLAY, extra_cost=cost)
        # Site complete: advance via the pivot swap.
        self._replay_at_site = 0
        self.site_counter += 1
        if kind == "rk":
            self.rk_sites += 1
            if (self.stop_after_rk_sites is not None
                    and self.rk_sites >= self.stop_after_rk_sites) \
                    or self.rk_sites >= self.total_rk_sites:
                self.done = True
                return ReplayDecision(ReplayAction.RELEASE)
        cost = self._prime()
        return ReplayDecision(ReplayAction.PIVOT, extra_cost=cost)
