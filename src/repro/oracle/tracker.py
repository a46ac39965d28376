"""The taint-tracking leakage oracle over the out-of-order core.

Secrets are registered as tainted *regions* of a process's virtual
address space (:meth:`TaintOracle.add_secret_region`, seeded by the
victim ``write_secret`` / ``write_ciphertext`` helpers through
:func:`repro.oracle.runtime.note_secret_write`).  From there taint is
propagated dynamically alongside the core's own dataflow:

* **decode** — an entry is tainted when any source operand comes from
  a tainted architectural register or a tainted producer entry;
* **complete** — a load is additionally tainted by the memory it read
  (exact tainted word, registered secret region, or an in-flight
  tainted store it forwarded from); a tainted entry taints its
  dependents, and a tainted conditional branch sets the context's
  sticky *control* taint;
* **retire** — taint is committed to architectural state: the
  destination register and (for stores) the stored-to word are marked
  or cleared.

Hook points where microarchitectural state becomes *observable* then
raise :class:`~repro.oracle.events.LeakageEvent`s when the observable
depends on taint: issue-port choice (``port-issue``), cache set/way
touch and its hit-level/latency class (``cache-touch``), page-walk
latency (``walk-latency``), squash/replay boundaries
(``squash-replay`` / ``spec-issue``) and OS-visible page faults
(``page-fault``).

Known over-approximations (the oracle is *sound* for the direction
"verdict clean ⇒ no secret-dependent observable", not precise):

* taint is per ROB entry, not per operand — a store with a tainted
  value taints its (possibly public) target word and vice versa;
* control taint is sticky per context: after one tainted branch,
  every later issue in that context is flagged;
* no value-based clearing (``xor r, r`` stays tainted);
* memory taint is word-granular at exact virtual addresses; only
  registered *regions* match overlapping accesses.

``docs/ORACLE.md`` discusses each with examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.oracle import runtime
from repro.oracle.events import LeakageEvent, LeakageSummary

#: Squash reasons that open a MicroScope replay window (the trigger
#: re-fetches, so flagged squashes are amplifiable, not one-shot).
_REPLAY_REASONS = ("page-fault", "mispredict", "memory-order")


@dataclass(frozen=True)
class OracleConfig:
    """Tuning knobs for a :class:`TaintOracle` activation."""

    #: Honor ``note_secret_write`` seeding.  Control runs set this
    #: False to prove the machinery itself raises zero events.
    seed_secrets: bool = True
    #: Verbatim events kept per run (counts are always exact).
    max_samples: int = 32

    def to_dict(self) -> Dict[str, Any]:
        """JSON-clean form (used inside memoizable trial params)."""
        return {"seed_secrets": self.seed_secrets,
                "max_samples": self.max_samples}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "OracleConfig":
        """Inverse of :meth:`to_dict`."""
        return cls(seed_secrets=bool(payload.get("seed_secrets", True)),
                   max_samples=int(payload.get("max_samples", 32)))


def _coerce_config(oracle: Any) -> Optional[OracleConfig]:
    """Normalize an ``oracle=`` option: None/False off, True default,
    an :class:`OracleConfig` (or its dict form) as given."""
    if oracle is None or oracle is False:
        return None
    if oracle is True:
        return OracleConfig()
    if isinstance(oracle, OracleConfig):
        return oracle
    if isinstance(oracle, dict):
        return OracleConfig.from_dict(oracle)
    raise TypeError(f"oracle= expects None/bool/OracleConfig/dict, "
                    f"got {type(oracle).__name__}")


class TaintOracle:
    """Dynamic taint state plus the leakage-event log for one run.

    Activate with :func:`repro.oracle.runtime.activate`; machines
    built (or re-entered through a ``Replayer``) while active get the
    forwarding hub attached and start reporting into this instance.
    """

    def __init__(self, config: Optional[OracleConfig] = None):
        self.config = config or OracleConfig()
        self.summary = LeakageSummary(max_samples=self.config.max_samples)
        #: Registered secret regions: ``(pcid, start, end)`` half-open.
        self.regions: List[Tuple[int, int, int]] = []
        #: Exact tainted memory words: ``(pcid, va)``.
        self.mem: Set[Tuple[int, int]] = set()
        #: Tainted architectural registers: ``(context_id, reg)``.
        self.arch: Set[Tuple[int, str]] = set()
        #: In-flight tainted ROB entries: ``(context_id, seq)``.
        self.tainted: Set[Tuple[int, int]] = set()
        #: Contexts under sticky control taint.
        self.control: Set[int] = set()
        #: Entries already flagged at issue (suppresses duplicate
        #: retroactive ``spec-issue`` events at squash).
        self._flagged: Set[Tuple[int, int]] = set()
        #: Most recent hierarchy access ``(paddr, is_write, hit_level,
        #: latency)`` — correlated by paddr to attribute latency class.
        self._last_access: Optional[Tuple[int, bool, int, int]] = None

    # --- seeding ------------------------------------------------------

    def add_secret_region(self, process: Any, va: int, size: int) -> None:
        """Mark ``[va, va+size)`` of *process* as secret."""
        if not self.config.seed_secrets:
            return
        self.regions.append((self._process_pcid(process), va, va + size))

    @staticmethod
    def _process_pcid(process: Any) -> int:
        return process.pcid if process is not None else -1

    @staticmethod
    def _context_pcid(context: Any) -> int:
        process = getattr(context, "process", None)
        return process.pcid if process is not None else -1

    def _addr_tainted(self, pcid: int, va: Optional[int]) -> bool:
        if va is None:
            return False
        if (pcid, va) in self.mem:
            return True
        for region_pcid, start, end in self.regions:
            if region_pcid == pcid and start <= va < end:
                return True
        return False

    # --- event emission -----------------------------------------------

    def _emit(self, kind: str, cycle: int, context_id: int, index: int,
              op: str, reasons: Tuple[str, ...],
              detail: Dict[str, Any]) -> None:
        self.summary.record(LeakageEvent(
            kind=kind, cycle=cycle, context_id=context_id, index=index,
            op=op, reasons=reasons, detail=detail))

    # --- core stages (forwarded by the _CoreHub observer) -------------

    def on_decode(self, context: Any, entry: Any) -> None:
        """Seed an entry's taint from its source operands: the
        in-flight producer each was read from (the rename map does not
        name *entry* yet), else architectural state."""
        instr = entry.instr
        for reg in (instr.rs1, instr.rs2):
            if reg is None:
                continue
            producer = context.rename.get(reg)
            if producer is None:
                if (entry.context_id, reg) not in self.arch:
                    continue
            elif (producer.context_id, producer.seq) not in self.tainted:
                # Completed producers are final; in-flight producers
                # that turn out tainted upgrade us at their completion.
                continue
            self.tainted.add((entry.context_id, entry.seq))
            return

    def on_complete(self, context: Any, entry: Any) -> None:
        """Finalize an entry's taint and propagate it to dependents."""
        key = (entry.context_id, entry.seq)
        taint = key in self.tainted
        instr = entry.instr
        if instr.is_load and not taint:
            pcid = self._context_pcid(context)
            if self._addr_tainted(pcid, entry.addr):
                taint = True
            else:
                for store in context.rob.stores_older_than(entry.seq):
                    if (store.addr_resolved and store.addr == entry.addr
                            and (store.context_id, store.seq)
                            in self.tainted):
                        taint = True
                        break
            if taint:
                self.tainted.add(key)
        if not taint:
            return
        for dependent, _slot in entry.dependents:
            if not dependent.squashed:
                self.tainted.add((dependent.context_id, dependent.seq))
        if instr.is_cond_branch:
            self.control.add(entry.context_id)

    def on_issue(self, core: Any, context: Any, entry: Any) -> None:
        """Flag the observables of a taint-dependent issue."""
        key = (entry.context_id, entry.seq)
        instr = entry.instr
        is_mem = instr.is_load or instr.is_store
        reasons: List[str] = []
        if key in self.tainted:
            reasons.append("address" if is_mem else "data")
        if is_mem and self._addr_tainted(self._context_pcid(context),
                                         entry.addr):
            reasons.append("region")
        if entry.context_id in self.control:
            reasons.append("control")
        if not reasons:
            return
        self._flagged.add(key)
        rtuple = tuple(reasons)
        cycle = core.cycle
        op = instr.op.value
        detail: Dict[str, Any] = {"port": entry.port_name,
                                  "class": entry.op_cls}
        if core.ports.is_non_pipelined(entry.op_cls):
            detail["occupies"] = True
        self._emit("port-issue", cycle, entry.context_id, entry.index,
                   op, rtuple, detail)
        if entry.paddr is not None:
            self._emit("cache-touch", cycle, entry.context_id,
                       entry.index, op, rtuple,
                       self._touch_detail(core, entry.paddr))
        if entry.walk_latency:
            self._emit("walk-latency", cycle, entry.context_id,
                       entry.index, op, rtuple,
                       {"latency": entry.walk_latency,
                        "faulted": entry.fault is not None})

    def _touch_detail(self, core: Any, paddr: int) -> Dict[str, Any]:
        l1 = core.hierarchy.l1
        detail: Dict[str, Any] = {"paddr": paddr,
                                  "set": l1.set_index(paddr)}
        where = l1.locate(paddr)
        if where is not None:
            detail["way"] = where[1]
        last = self._last_access
        if last is not None and last[0] == paddr:
            detail["hit_level"] = last[2]
            detail["latency"] = last[3]
        return detail

    def on_retire(self, core: Any, context: Any, entry: Any) -> None:
        """Commit (or clear) taint in architectural state at retire."""
        key = (entry.context_id, entry.seq)
        taint = key in self.tainted or entry.context_id in self.control
        instr = entry.instr
        if instr.is_store and entry.addr is not None:
            cell = (self._context_pcid(context), entry.addr)
            if taint:
                self.mem.add(cell)
                if entry.paddr is not None:
                    reason = ("data" if key in self.tainted
                              else "control")
                    self._emit("cache-touch", core.cycle,
                               entry.context_id, entry.index,
                               instr.op.value, (reason,),
                               self._touch_detail(core, entry.paddr))
            else:
                self.mem.discard(cell)
        dest = instr.dest()
        if dest is not None and entry.value is not None:
            reg = (entry.context_id, dest)
            if taint:
                self.arch.add(reg)
            else:
                self.arch.discard(reg)
        self.tainted.discard(key)
        self._flagged.discard(key)

    def on_squash(self, cycle: int, context: Any, squashed: list,
                  reason: str, trigger: Any) -> None:
        """Flag secret-dependent squashes (the replay boundary)."""
        ctx = context.context_id
        trigger_taint = False
        if trigger is not None:
            trigger_taint = (ctx, trigger.seq) in self.tainted
            if not trigger_taint and trigger.addr is not None:
                trigger_taint = self._addr_tainted(
                    self._context_pcid(context), trigger.addr)
            # A mispredicted tainted branch squashes *before* its
            # complete stage runs — set control taint here so the
            # squash itself, and everything after, is flagged.
            if trigger_taint and trigger.instr.is_cond_branch:
                self.control.add(ctx)
        tainted = trigger_taint or ctx in self.control
        if tainted and squashed:
            reasons = []
            if trigger_taint:
                reasons.append("data")
            if ctx in self.control:
                reasons.append("control")
            rtuple = tuple(reasons)
            index = trigger.index if trigger is not None else -1
            op = (trigger.instr.op.value if trigger is not None
                  else reason)
            detail: Dict[str, Any] = {
                "reason": reason, "squashed": len(squashed),
                "replayable": reason in _REPLAY_REASONS}
            self._emit("squash-replay", cycle, ctx, index, op, rtuple,
                       detail)
            if (reason == "page-fault" and trigger is not None
                    and trigger.addr is not None):
                self._emit("page-fault", cycle, ctx, index, op, rtuple,
                           {"vpn": trigger.addr >> 12})
            for entry in squashed:
                ekey = (ctx, entry.seq)
                if entry.issue_cycle is None or ekey in self._flagged:
                    continue
                self._emit("spec-issue", cycle, ctx, entry.index,
                           entry.instr.op.value, rtuple,
                           {"port": entry.port_name,
                            "class": entry.op_cls})
        for entry in squashed:
            ekey = (ctx, entry.seq)
            self.tainted.discard(ekey)
            self._flagged.discard(ekey)

    def on_mem_access(self, paddr: int, is_write: bool, hit_level: int,
                      latency: int) -> None:
        """Record the hierarchy's view of the most recent access."""
        self._last_access = (paddr, is_write, hit_level, latency)


# ---------------------------------------------------------------------
# machine attachment
# ---------------------------------------------------------------------


class _CoreHub:
    """Permanently-attached observer forwarding to the thread's
    active oracle (a ``None``-check when idle, so warm machines keep
    the hub across oracle-free runs at negligible cost)."""

    __slots__ = ()

    def on_decode(self, core: Any, context: Any, entry: Any) -> None:
        oracle = runtime.current()
        if oracle is not None:
            oracle.on_decode(context, entry)

    def on_complete(self, core: Any, context: Any, entry: Any) -> None:
        if entry.faulted:
            return  # no value to propagate; the squash clears its taint
        oracle = runtime.current()
        if oracle is not None:
            oracle.on_complete(context, entry)

    def on_issue(self, core: Any, context: Any, entry: Any) -> None:
        oracle = runtime.current()
        if oracle is not None:
            oracle.on_issue(core, context, entry)

    def on_retire(self, core: Any, context: Any, entry: Any) -> None:
        oracle = runtime.current()
        if oracle is not None:
            oracle.on_retire(core, context, entry)

    def on_squash(self, core: Any, context: Any, squashed: list,
                  reason: str, trigger: Any) -> None:
        oracle = runtime.current()
        if oracle is not None:
            oracle.on_squash(core.cycle, context, squashed, reason,
                             trigger)

    def on_mem_access(self, paddr: int, is_write: bool, hit_level: int,
                      latency: int) -> None:
        oracle = runtime.current()
        if oracle is not None:
            oracle.on_mem_access(paddr, is_write, hit_level, latency)


def attach_machine(machine: Any) -> None:
    """Idempotently attach the oracle hub to *machine*, which routes
    its core stages and ``on_mem_access`` (see
    :func:`repro.oracle.runtime.note_machine`)."""
    if not any(isinstance(observer, _CoreHub)
               for observer in machine.observers):
        machine.attach(_CoreHub())


# ---------------------------------------------------------------------
# FaultPolicy.verify integration
# ---------------------------------------------------------------------


def oracle_consistency_verify(payload: Any) -> bool:
    """``FaultPolicy.verify``-compatible cross-check of a trial result.

    Accepts any payload; only dict payloads carrying an oracle summary
    under ``detail["oracle"]`` (the matrix cell shape) are checked.
    The invariant is one-directional: when the oracle's verdict is
    ``"clean"`` the statistical result must not show an
    above-chance-by-ε success — a clean oracle with a leaking
    statistic means the instrumentation missed a flow, and the trial
    is rejected so the resilience harness surfaces it.
    """
    if not isinstance(payload, dict):
        return True
    detail = payload.get("detail")
    if not isinstance(detail, dict):
        return True
    oracle = detail.get("oracle")
    if not isinstance(oracle, dict) or oracle.get("verdict") != "clean":
        return True
    accuracy = payload.get("accuracy")
    chance = payload.get("chance")
    if not isinstance(accuracy, (int, float)) \
            or not isinstance(chance, (int, float)):
        return True
    from repro.evaluation.classify import EPSILON

    return accuracy - chance <= EPSILON
