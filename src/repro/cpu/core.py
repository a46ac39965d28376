"""The out-of-order, SMT-enabled core.

Per cycle the core performs, in order:

1. **Complete** — pop finished executions off the event heap, write
   back results, wake dependents, resolve branch mispredictions.
2. **Abort** — process pending TSX aborts.
3. **Retire** — per context, retire completed instructions in program
   order from the ROB head; a faulted head triggers the precise
   page-fault trap (or a transaction abort when inside TSX).
4. **Dispatch** — issue ready instructions to execution ports, SMT
   round-robin, oldest first: the fence rule, then ``gate`` observers,
   then the port search.  The scan stops at the oldest in-flight fence;
   latency is computed only once a port is granted; only ports that
   issued are reset next cycle.  Once an op class finds every port held
   in a cycle, later entries of that class are only counted, without
   searching again, and their ``contended`` counts are added once after
   the scan; a scan that issues nothing leaves the ready queue as it
   is.  Loads translate through TLB → page walk here, which is where
   the MicroScope speculation window opens.
5. **Fetch/decode** — pull instructions from the (predicted) control
   flow into the ROB, one pass over each context's fetch group.

``step()`` runs all five.  A caller that probes first
(:meth:`Core.next_work`, as ``Machine.run`` does) skips cycles in
which no stage can act (:meth:`Core.fast_forward`, handed the probe's
answer) and runs cycles in which only fetch can act as
:meth:`Core.front_end_cycle`, both bit-exact with ``step()``.  The
probe asks once per op class whether its ports hold it back, and a
front-end-only cycle judges only the entries its own fetch added, so
a run of such cycles costs one probe, not one per cycle.

Everything MicroScope needs emerges from these rules: instructions
younger than a page-faulting load execute in its shadow and leave
microarchitectural residue, then are squashed and re-fetched when the
OS keeps the page non-present — the replay.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cpu.branch import BranchPredictor
from repro.cpu.config import OP_CLASSES, CoreConfig
from repro.cpu.context import ContextState, HardwareContext, TransactionState
from repro.cpu.decode import (FLOW_BRANCH, FLOW_HALT, FLOW_JUMP, FLOW_NEXT,
                              LATENCY_KEYS)
from repro.cpu.observer import CORE_STAGES, bind_stages
from repro.cpu.ports import Port, PortSet
from repro.cpu.rob import EntryState, ROBEntry, clone_entry
from repro.cpu.traps import PanicTrapHandler, TrapHandler
from repro.isa.instructions import Instruction, Opcode
from repro.mem.cache import line_of
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.physical import PhysicalMemory
from repro.vm import address as vaddr
from repro.vm.tlb import TLBHierarchy
from repro.vm.walker import PageWalker

MASK64 = (1 << 64) - 1
#: Smallest positive normal double; operands/results below this are
#: subnormal and take the slow divider path.
_MIN_NORMAL = 2.2250738585072014e-308


def _to_signed(value: int) -> int:
    value &= MASK64
    return value - (1 << 64) if value >= (1 << 63) else value


def _is_subnormal(value: float) -> bool:
    return value != 0.0 and abs(value) < _MIN_NORMAL and math.isfinite(value)


def _check_config(config: CoreConfig):
    """Reject a configuration the pipeline cannot run, or would run
    silently wrong: an op class no port accepts would wait forever in
    the ready queue, a missing latency would fail mid-run, a misspelled
    class name would be ignored (``non_pipelined={"fdiv"}`` leaves the
    divider pipelined), and a zero width or ROB size retires nothing."""
    for name in ("fetch_width", "issue_width", "retire_width",
                 "rob_size"):
        if getattr(config, name) < 1:
            raise ValueError(f"{name} must be at least 1, "
                             f"got {getattr(config, name)}")
    for where, classes in (
            [("non_pipelined", config.non_pipelined)]
            + [(f"port {port.name}", port.classes)
               for port in config.ports]):
        unknown = sorted(set(classes) - set(OP_CLASSES))
        if unknown:
            raise ValueError(f"{where} names unknown op class(es) "
                             f"{', '.join(map(repr, unknown))}; known: "
                             f"{', '.join(OP_CLASSES)}")
    served = set().union(*(port.classes for port in config.ports))
    for cls in OP_CLASSES:
        if cls not in served:
            raise ValueError(f"no execution port accepts op class {cls!r}")
    missing = sorted(LATENCY_KEYS - config.latencies.keys())
    if missing:
        raise ValueError(f"no latency configured for {', '.join(missing)}")


class Core:
    """One physical core with ``config.num_contexts`` SMT contexts."""

    def __init__(self, core_id: int, config: CoreConfig,
                 phys: PhysicalMemory, hierarchy: MemoryHierarchy,
                 tlbs: TLBHierarchy, walker: PageWalker):
        _check_config(config)
        self.core_id = core_id
        self.config = config
        self.phys = phys
        self.hierarchy = hierarchy
        self.tlbs = tlbs
        self.walker = walker
        self.cycle = 0
        self.contexts: List[HardwareContext] = [
            HardwareContext(i, config.rob_size)
            for i in range(config.num_contexts)]
        self.ports = PortSet(config.ports, config.non_pipelined)
        #: SMT round-robin orders: dispatch at cycle c starts from
        #: context ``c % n`` (``_rotations[c % n]``), fetch one later.
        order = list(range(len(self.contexts)))
        self._rotations: List[List[int]] = [
            order[r:] + order[:r] for r in range(max(len(order), 1))]
        self.predictor = BranchPredictor(config.predictor_entries)
        self.trap_handler: TrapHandler = PanicTrapHandler()
        self._events: List[Tuple[int, int, ROBEntry]] = []
        self._event_tiebreak = 0
        self._rdrand = random.Random(config.rdrand_seed)
        self._jitter = random.Random(config.rdtsc_jitter_seed)
        #: Observer dispatch (repro.cpu.observer): ``_<stage>``
        #: (``_on_decode`` ... ``_gate``) holds the bound methods to
        #: call at each stage; ``Machine.attach`` rebuilds them.
        bind_stages(self, CORE_STAGES, ())
        # Transaction aborts triggered by cache evictions land here.
        hierarchy.l1.on_evict = self._on_l1_evict

    # ------------------------------------------------------------------
    # per-cycle driver
    # ------------------------------------------------------------------

    def step(self):
        """Advance the core by one cycle."""
        self.ports.new_cycle()
        self._complete()
        self._process_txn_aborts()
        self._retire()
        self._dispatch()
        self._fetch()
        self.cycle += 1

    def busy(self) -> bool:
        """True while any context can still make progress."""
        return any(not ctx.finished() for ctx in self.contexts)

    # ------------------------------------------------------------------
    # quiescence fast-forward
    # ------------------------------------------------------------------

    def next_work(self, held: Optional[List[Sequence[Port]]]
                  ) -> Tuple[Optional[int], Optional[float]]:
        """``(cycle, front_end_bound)``: the next cycle at which any
        pipeline stage can act, from one pass over the contexts.

        *cycle* is ``None`` when no context is busy (:meth:`busy` is
        False), whatever the event heap still holds.  It is the current
        cycle when some stage may act now, or when nothing is known to
        wake the core (naive stepping is then the only safe answer).
        Otherwise it is a later cycle T: every cycle strictly before T
        is provably an empty ``step()``, because the only pending work
        sits in the event heap, behind a known stall/block cycle, or in
        a ready queue whose entries are all held: younger than the
        oldest in-flight fence, that fence while an older entry is
        incomplete, or of an op class whose every port a non-pipelined
        op holds until some cycle that then bounds T (:meth:`_hold`,
        asked once per class: no port changes during the probe).  Such
        a step changes nothing but the ``contended`` counts of those
        ports, which :meth:`fast_forward` credits in bulk.  A ready
        load, or an entry dispatch would hand to a ``gate`` observer,
        makes the probe step.

        *front_end_bound* is ``None`` unless *cycle* is the current one
        and only fetch can act in it: :meth:`front_end_cycle` then does
        exactly what ``step()`` would.  It is the T worked out as above
        (``math.inf`` when nothing bounds it): until T, only what fetch
        adds can change the answer, which is how ``front_end_cycle``
        tells whether the next cycle is front-end-only too.
        When *held* is a list, it also receives, per port-held ready
        entry, the ports dispatch would count as contended each cycle
        until *cycle*; it is complete whenever the answer is a jump or
        front-end-only."""
        cycle = self.cycle
        busy = False
        fetch_now = False
        target = math.inf
        verdicts: Dict[str, Tuple[float, Sequence[Port]]] = {}
        for context in self.contexts:
            state = context.state
            if state is ContextState.RUNNING:
                program = context.program
                length = len(context.decoded)
                entries = context.rob.entries
                if (not entries and program is not None
                        and context.fetch_index >= length):
                    # Finished, so not busy; a leftover interrupt,
                    # abort or ready entry still acts if another
                    # context keeps the core busy.
                    if (context.pending_interrupt is not None
                            or context.txn_abort_pending
                            or any(not entry.squashed
                                   for entry in context.ready)):
                        target = cycle
                    continue
                busy = True
                if context.ready:
                    until = self._held_until(context, context.sorted_ready(),
                                             verdicts, held)
                    if until is None:
                        return cycle, None  # dispatch may issue
                    if until < target:
                        target = until
                if (context.pending_interrupt is not None
                        or context.txn_abort_pending):
                    return cycle, None
                if entries and entries[0].completed:
                    return cycle, None  # retire (or fault/trap) acts
                if (context.fetch_index < length
                        and len(entries) < context.rob.capacity):
                    stall = context.fetch_stall_until
                    if stall <= cycle:
                        # Fetch can act now; keep checking that every
                        # other stage is idle.
                        fetch_now = True
                    elif stall < target:
                        target = stall
            elif state is ContextState.BLOCKED:
                busy = True
                blocked_until = context.blocked_until
                if blocked_until <= cycle:
                    return cycle, None
                if blocked_until < target:
                    target = blocked_until
            # IDLE/HALTED contexts are finished and never act again.
        if not busy:
            return None, None
        if self._events and self._events[0][0] < target:
            target = self._events[0][0]
        if target <= cycle:
            return cycle, None
        if fetch_now:
            return cycle, target
        if target == math.inf:
            return cycle, None
        return target, None

    def front_end_cycle(self, held: List[Sequence[Port]],
                        bound: float) -> Optional[float]:
        """Advance one cycle in which fetch is the only stage that can
        act, exactly as ``step()`` would, and say whether the next
        cycle is one too.

        *bound* is the *front_end_bound* of ``next_work(held)``, or
        what the previous call returned.  Completion, abort and retire
        have nothing to do; dispatch would issue nothing and only count
        one ``contended`` cycle on each of the *held* ports, which is
        credited here; then fetch runs as in ``step()``.  (If a context
        has raised an interrupt or abort since, as an ``until``
        callback may, retire acts after all: the cycle runs as
        ``step()`` and ``None`` is returned.)

        Before *bound* nothing but fetch changes what the core can do,
        so only the ready entries this fetch added are judged, by the
        probe's own scan (:meth:`_held_until`): the ports of those its
        op class holds back join *held*, and the cycle they are
        released may lower the bound.  Returns the bound while the next
        cycle is front-end-only too, and ``None`` (probe again) when an
        added entry may issue, the bound is reached, or no context can
        fetch next cycle (so an empty front-end cycle never stands in
        for a jump)."""
        contexts = self.contexts
        # Fetch-time wakes are appended in seq order, so what fetch
        # adds is the tail of each ready queue beyond these lengths.
        before = []
        for context in contexts:
            if (context.pending_interrupt is not None
                    or context.txn_abort_pending):
                self.step()
                return None
            before.append(len(context.ready))
        self.ports.new_cycle()
        for ports in held:
            for port in ports:
                port.stats.contended += 1
        self._fetch()
        cycle = self.cycle = self.cycle + 1
        if cycle >= bound:
            return None
        verdicts: Dict[str, Tuple[float, Sequence[Port]]] = {}
        fetchable = False
        for context, size in zip(contexts, before):
            ready = context.ready
            if len(ready) > size:
                until = self._held_until(context, ready[size:], verdicts,
                                         held)
                if until is None:
                    return None
                if until < bound:
                    bound = until
            if (not fetchable and context.state is ContextState.RUNNING
                    and context.fetch_stall_until <= cycle
                    and context.fetch_index < len(context.decoded)
                    and len(context.rob.entries) < context.rob.capacity):
                fetchable = True
        return bound if fetchable else None

    def _held_until(self, context: HardwareContext,
                    entries: Sequence[ROBEntry],
                    verdicts: Dict[str, Tuple[float, Sequence[Port]]],
                    held: Optional[List[Sequence[Port]]]
                    ) -> Optional[float]:
        """Judge *entries*, ready entries of *context* in program order,
        as :meth:`_dispatch` would at the current cycle: ``None`` when
        one may issue now, else the earliest cycle one might
        (``math.inf`` when only a completion, which the event heap
        bounds, can release one).

        An entry younger than the oldest in-flight fence is held (the
        scan stops there, as dispatch's does); the fence is held while
        an older entry is incomplete; any other entry is judged by
        :meth:`_hold`, once per op class: *verdicts* keeps the answers,
        as no port changes while the core is judging.  Each port-held
        entry's ports are appended to *held* (when it is a list)."""
        fence_seq = context.oldest_fence_seq()
        if fence_seq is None:
            fence_seq = math.inf
        until = math.inf
        for entry in entries:
            seq = entry.seq
            if seq > fence_seq:
                break
            if entry.squashed:
                continue
            if seq == fence_seq:
                if context.rob.all_older_completed(seq):
                    return None
                continue
            op_cls = entry.op_cls
            hold = verdicts.get(op_cls)
            if hold is None:
                hold = self._hold(op_cls)
                if hold is None:
                    return None
                verdicts[op_cls] = hold
                if hold[0] < until:
                    until = hold[0]
            if held is not None:
                held.append(hold[1])
        return until

    def _hold(self, op_cls: str) -> Optional[Tuple[float, Sequence[Port]]]:
        """Why a ready entry of *op_cls* that passed the fence rule
        cannot issue at the current cycle, as the rules of
        :meth:`_dispatch` decide.

        Returns ``None`` when it may issue now, or when that cannot be
        ruled out cheaply: a load, or any entry while a gate (whose
        calls are observable) is attached.  Otherwise returns
        ``(until, ports)``: every port of the class is held by a
        non-pipelined op until at least cycle *until*, and each cycle
        the entry waits, dispatch counts one ``contended`` cycle on
        each of *ports*."""
        if op_cls == "load" or self._gate:
            return None
        now = self.cycle
        ports = self.ports._by_class[op_cls]
        until = math.inf
        for port in ports:
            busy_until = port.busy_until
            if busy_until <= now:
                return None
            if busy_until < until:
                until = busy_until
        return until, ports

    def fast_forward(self, limit: Optional[int] = None,
                     target: Optional[int] = None,
                     held: Optional[List[Sequence[Port]]] = None) -> int:
        """Jump the clock to the next cycle where work exists (clamped
        to *limit*).  Returns the number of cycles skipped.  The
        skipped cycles are exactly the ``step()`` calls naive stepping
        would have performed with no effect beyond port accounting:
        for a jump of k cycles, every port of each port-held ready
        entry's class (:meth:`_hold`) gains k ``contended`` cycles, the
        count :meth:`PortSet.find` would have made one cycle at a time.
        All observable state — cycle counts, stats, port counters,
        architectural state — is bit-identical.

        *target* and *held* are the answer of a ``next_work(held)``
        just made at this cycle (``Machine.run`` passes its own probe);
        without them the probe runs here."""
        if target is None or held is None:
            held = []
            target = self.next_work(held)[0]
            if target is None:
                return 0
        if limit is not None and target > limit:
            target = limit
        skipped = target - self.cycle
        if skipped <= 0:
            return 0
        for ports in held:
            for port in ports:
                port.stats.contended += skipped
        self.cycle = target
        return skipped

    # ------------------------------------------------------------------
    # snapshot support
    # ------------------------------------------------------------------

    def capture(self) -> tuple:
        """Clone every piece of core state that execution mutates.

        One clone memo spans the event heap and all contexts, so an
        in-flight entry referenced from several structures (ROB, rename
        map, ready queue, load index, heap — including squashed entries
        that live only in the heap) stays a single object in the
        snapshot.  Observers and the trap handler are identity wiring,
        not machine state, and are left untouched.
        """
        memo: dict = {}
        return (
            self.cycle,
            self._event_tiebreak,
            # Elementwise clone preserves the heap invariant: keys
            # (due cycle, tiebreak) are unchanged.
            [(due, tb, clone_entry(e, memo)) for due, tb, e in self._events],
            self._rdrand.getstate(),
            self._jitter.getstate(),
            self.predictor.capture(),
            self.ports.capture(),
            [context.capture(memo) for context in self.contexts],
        )

    def restore(self, state: tuple):
        (cycle, tiebreak, events, rdrand, jitter, predictor, ports,
         contexts) = state
        if len(contexts) != len(self.contexts):
            raise ValueError("snapshot context count mismatch")
        memo: dict = {}
        self.cycle = cycle
        self._event_tiebreak = tiebreak
        self._events = [(due, tb, clone_entry(e, memo))
                        for due, tb, e in events]
        self._rdrand.setstate(rdrand)
        self._jitter.setstate(jitter)
        self.predictor.restore(predictor)
        self.ports.restore(ports)
        for context, context_state in zip(self.contexts, contexts):
            context.restore(context_state, memo)

    # ------------------------------------------------------------------
    # stage 1: completion / writeback
    # ------------------------------------------------------------------

    def _note_squash(self, context: HardwareContext, squashed,
                     reason: str, trigger: Optional[ROBEntry] = None):
        context.note_squashed(squashed)
        for observer in self._on_squash:
            observer(self, context, squashed, reason, trigger)

    def _schedule(self, entry: ROBEntry, latency: int):
        entry.state = EntryState.EXECUTING
        entry.issue_cycle = self.cycle
        self._event_tiebreak += 1
        heapq.heappush(self._events,
                       (self.cycle + max(latency, 1), self._event_tiebreak,
                        entry))

    def _complete(self):
        while self._events and self._events[0][0] <= self.cycle:
            _, _, entry = heapq.heappop(self._events)
            if entry.squashed:
                continue
            entry.state = EntryState.COMPLETED
            entry.complete_cycle = self.cycle
            if entry.mispredicted:
                self._handle_mispredict(entry)
            if entry.faulted and entry.op_cls == "load" \
                    and self._on_pte_race:
                self._try_pte_race(entry)
            for observer in self._on_complete:
                observer(self, self.contexts[entry.context_id], entry)
            if entry.faulted:
                continue  # no value; dependents stay asleep until squash
            for dependent, slot in entry.dependents:
                if dependent.squashed:
                    continue
                dependent.operands[slot] = entry.value
                dependent.pending -= 1
                if (dependent.pending == 0
                        and dependent.state is EntryState.DISPATCHED):
                    dependent.state = EntryState.READY
                    self.contexts[dependent.context_id].wake(dependent)
            entry.dependents.clear()

    def _try_pte_race(self, entry: ROBEntry):
        """Give an attached racer the chance to satisfy the walk the
        instant it finishes (the OS set the present bit just before the
        walker read the leaf entry — §7.2)."""
        context = self.contexts[entry.context_id]
        if not any(race(self, context, entry)
                   for race in self._on_pte_race):
            return
        process = context.process
        try:
            paddr = process.page_tables.translate(entry.addr)
        except Exception:
            return  # racer claimed success but the page is still absent
        entry.fault = None
        entry.paddr = paddr
        self.hierarchy.access(paddr)
        entry.value = self._coerce_load_value(
            entry.instr, self.phys.read(paddr, entry.instr.width))

    def _handle_mispredict(self, entry: ROBEntry):
        context = self.contexts[entry.context_id]
        squashed = context.rob.squash_younger_than(entry.seq)
        self._note_squash(context, squashed, "mispredict", trigger=entry)
        context.drop_squashed_ready()
        context.rebuild_rename()
        target = entry.value  # branch "value" is the correct next index
        context.fetch_index = target
        context.fetch_stall_until = (
            self.cycle + self.config.mispredict_penalty)

    # ------------------------------------------------------------------
    # stage 2: transaction aborts
    # ------------------------------------------------------------------

    def _on_l1_evict(self, line_addr: int, dirty: bool):
        for context in self.contexts:
            txn = context.txn
            if txn is not None and line_addr in txn.write_lines:
                context.txn_abort_pending = "write-set-eviction"

    def _process_txn_aborts(self):
        for context in self.contexts:
            if context.txn_abort_pending and context.in_transaction:
                self._abort_transaction(context, context.txn_abort_pending)
            context.txn_abort_pending = None

    def _abort_transaction(self, context: HardwareContext, reason: str):
        """Roll back to the TBEGIN checkpoint and jump to the fallback."""
        txn = context.txn
        squashed = context.rob.squash_younger_than(-1)
        self._note_squash(context, squashed, f"txn-abort:{reason}")
        context.drop_squashed_ready()
        context.rebuild_rename()
        context.restore_regs((txn.int_regs, txn.fp_regs))
        context.txn = None
        context.stats.txn_aborts += 1
        # The fallback handler receives the abort count in r15, akin to
        # the EAX abort code of real TSX.
        context.int_regs["r15"] = context.stats.txn_aborts
        context.fetch_index = txn.fallback_index
        context.fetch_stall_until = self.cycle + self.config.squash_penalty
        context.last_txn_abort_reason = reason

    # ------------------------------------------------------------------
    # stage 3: retire
    # ------------------------------------------------------------------

    def _retire(self):
        for context in self.contexts:
            if context.state is ContextState.BLOCKED:
                if self.cycle >= context.blocked_until:
                    context.state = ContextState.RUNNING
                else:
                    continue
            if context.state is not ContextState.RUNNING:
                continue
            if context.pending_interrupt is not None:
                self._take_interrupt(context)
                continue
            for _ in range(self.config.retire_width):
                head = context.rob.head
                if head is None or not head.completed:
                    break
                if head.faulted:
                    self._fault_at_head(context, head)
                    break
                context.rob.pop_head()
                self._apply_retire(context, head)
                if context.state is not ContextState.RUNNING:
                    break

    def _apply_retire(self, context: HardwareContext, entry: ROBEntry):
        decoded = context.decoded[entry.index]
        op = entry.instr.op
        dest = decoded.dest
        if dest is not None and entry.value is not None:
            context.write_reg(dest, entry.value)
        if context.rename.get(dest) is entry:
            del context.rename[dest]
        if decoded.is_store:
            self._drain_store(context, entry)
        elif op is Opcode.HALT:
            context.state = ContextState.HALTED
        elif op is Opcode.TBEGIN:
            self._begin_transaction(context, entry)
        elif op is Opcode.TEND:
            self._commit_transaction(context)
        elif op is Opcode.TABORT:
            # Abort immediately: a same-cycle TEND must not win.
            if context.in_transaction:
                self._abort_transaction(context, "explicit-abort")
        if entry.seq in context.fence_seqs:
            context.fence_seqs.remove(entry.seq)
        if decoded.is_load and entry.addr is not None:
            context.unindex_load(entry)
        context.replay_candidates.discard(entry.index)
        context.stats.retired += 1
        for observer in self._on_retire:
            observer(self, context, entry)

    def _drain_store(self, context: HardwareContext, entry: ROBEntry):
        if context.in_transaction:
            txn = context.txn
            txn.write_buffer.append(
                (entry.addr, entry.paddr, entry.store_value,
                 entry.instr.width))
            txn.write_lines.add(line_of(entry.paddr))
            # Write-set lines must stay resident in L1.
            self.hierarchy.access(entry.paddr, is_write=True)
        else:
            self.hierarchy.access(entry.paddr, is_write=True)
            self.phys.write(entry.paddr, entry.store_value,
                            entry.instr.width)

    def _begin_transaction(self, context: HardwareContext,
                           entry: ROBEntry):
        ints, fps = context.snapshot_regs()
        fallback = context.decoded[entry.index].target
        context.txn = TransactionState(
            fallback_index=fallback, int_regs=ints, fp_regs=fps)

    def _commit_transaction(self, context: HardwareContext):
        txn = context.txn
        if txn is None:
            return  # tend outside a transaction: architectural no-op
        for _va, paddr, value, width in txn.write_buffer:
            self.phys.write(paddr, value, width)
        context.txn = None

    def _fault_at_head(self, context: HardwareContext, head: ROBEntry):
        if context.in_transaction:
            # Faults inside a transaction abort it; the OS never sees
            # the fault (the T-SGX premise, and its blind spot).
            self._abort_transaction(context, "page-fault")
            return
        fault = head.fault
        squashed = context.rob.squash_younger_than(-1)
        self._note_squash(context, squashed, "page-fault", trigger=head)
        context.drop_squashed_ready()
        context.rebuild_rename()
        context.stats.faults += 1
        action = self.trap_handler.handle_page_fault(context, fault)
        if action.halt:
            context.state = ContextState.HALTED
            return
        resume = (action.resume_index if action.resume_index is not None
                  else head.index)
        context.fetch_index = resume
        context.fetch_stall_until = 0
        context.state = ContextState.BLOCKED
        context.blocked_until = (
            self.cycle + action.cost + self.config.squash_penalty)

    def _take_interrupt(self, context: HardwareContext):
        reason = context.pending_interrupt
        context.pending_interrupt = None
        context.stats.interrupts += 1
        if context.in_transaction:
            # Interrupts abort transactions — indistinguishable from a
            # fault abort, which is exactly T-SGX's Section 8 problem.
            self._abort_transaction(context, "interrupt")
            return
        head = context.rob.head
        resume = head.index if head is not None else context.fetch_index
        squashed = context.rob.squash_younger_than(-1)
        self._note_squash(context, squashed, f"interrupt:{reason}")
        context.drop_squashed_ready()
        context.rebuild_rename()
        action = self.trap_handler.handle_interrupt(context, reason)
        if action.halt:
            context.state = ContextState.HALTED
            return
        context.fetch_index = (
            action.resume_index if action.resume_index is not None
            else resume)
        context.fetch_stall_until = 0
        context.state = ContextState.BLOCKED
        context.blocked_until = (
            self.cycle + action.cost + self.config.squash_penalty)

    # ------------------------------------------------------------------
    # stage 4: dispatch / execute
    # ------------------------------------------------------------------

    def _dispatch(self):
        budget = self.config.issue_width
        contexts = self.contexts
        rotations = self._rotations
        gates = self._gate
        # Op classes whose port search failed this cycle: how many later
        # entries of the class (either context) passed the fence rule
        # and the gates, and the ports that search counted as
        # contended.  Nothing on those ports can free up or issue later
        # this cycle, so each such entry would count the same ports
        # again; they are credited once per class after the scan.
        exhausted: Dict[str, list] = {}
        for context_id in rotations[self.cycle % len(rotations)]:
            if budget <= 0:
                break
            context = contexts[context_id]
            if not context.ready:
                continue
            # Nothing younger than the oldest in-flight fence may issue,
            # so the seq-ordered scan stops there.  A memory-order squash
            # mid-scan only removes fences younger than every entry it
            # leaves, so the value read here stays exact for the scan.
            fence_seq = context.oldest_fence_seq()
            if fence_seq is None:
                fence_seq = math.inf
            ready = context.sorted_ready()
            # Built from the first entry that leaves the queue (issued,
            # or squashed by an issue); until then the queue is left as
            # it is.  Only an issue in this scan can squash an entry of
            # this context, so a scan that issues nothing finds none.
            still_ready = None
            for position, entry in enumerate(ready):
                if entry.squashed:
                    if still_ready is None:
                        still_ready = ready[:position]
                    continue
                if budget <= 0 or entry.seq > fence_seq:
                    if still_ready is not None:
                        still_ready.extend([e for e in ready[position:]
                                            if not e.squashed])
                    break
                if ((entry.seq == fence_seq and not
                     context.rob.all_older_completed(entry.seq))
                        or (gates and not all(gate(self, context, entry)
                                              for gate in gates))):
                    if still_ready is not None:
                        still_ready.append(entry)
                    continue
                op_cls = entry.op_cls
                record = exhausted.get(op_cls)
                if record is not None:
                    record[0] += 1
                    if still_ready is not None:
                        still_ready.append(entry)
                    continue
                if self._try_execute(context, entry):
                    budget -= 1
                    if still_ready is None:
                        still_ready = ready[:position]
                    continue
                if still_ready is not None:
                    still_ready.append(entry)
                if op_cls != "load":
                    # A non-load fails only in the port search.
                    exhausted[op_cls] = [0, self._contended_ports(op_cls)]
            if still_ready is not None:
                context.ready = still_ready
        for repeats, ports in exhausted.values():
            if repeats:
                for port in ports:
                    port.stats.contended += repeats

    def _contended_ports(self, op_cls: str) -> List[Port]:
        """The ports a port search for *op_cls* that just failed counted
        as contended: those a non-pipelined op holds and that issued
        nothing this cycle (:meth:`PortSet.find`)."""
        now = self.cycle
        return [port for port in self.ports._by_class[op_cls]
                if not port._issued_this_cycle and now < port.busy_until]

    def _try_execute(self, context: HardwareContext,
                     entry: ROBEntry) -> bool:
        """Attempt to begin execution of an entry that passed the fence
        rule and the gates; return True when issued."""
        op_cls = entry.op_cls
        if op_cls == "load":
            if not self._execute_load(context, entry):
                return False
            context.index_inflight_load(entry)
        else:
            ports = self.ports
            port = ports.find(self.cycle, op_cls)
            if port is None:
                return False
            latency = self._latency_for(context, entry)
            ports.issue(port, self.cycle, op_cls, latency)
            entry.port_name = port.name
            if op_cls == "store":
                self._execute_store(context, entry, latency)
            else:
                self._execute_alu(context, entry, latency)
        context.stats.issued += 1
        for observer in self._on_issue:
            observer(self, context, entry)
        return True

    def _latency_for(self, context: HardwareContext,
                     entry: ROBEntry) -> int:
        cfg = self.config
        key = context.decoded[entry.index].latency_key
        if key is not None:
            return cfg.latency_of(key)
        # FDIV: the slow divider path for a subnormal operand or result.
        a, b = entry.operands
        result_sub = False
        try:
            result_sub = _is_subnormal(float(a) / float(b))
        except (ZeroDivisionError, TypeError, OverflowError):
            pass
        if (_is_subnormal(float(a or 0.0)) or _is_subnormal(float(b or 0.0))
                or result_sub):
            return cfg.latency_of("fdiv_subnormal")
        return cfg.latency_of("fdiv")

    # --- ALU / branch / misc execution -----------------------------------

    def _execute_alu(self, context: HardwareContext, entry: ROBEntry,
                     latency: int):
        instr = entry.instr
        op = instr.op
        is_branch = entry.op_cls == "branch"
        a, b = entry.operands
        value = None
        if op is Opcode.LI or op is Opcode.FLI:
            value = instr.imm
        elif op in (Opcode.MOV, Opcode.FMOV):
            value = a
        elif op is Opcode.ADD:
            value = (a + b) & MASK64
        elif op is Opcode.SUB:
            value = (a - b) & MASK64
        elif op is Opcode.AND:
            value = a & b
        elif op is Opcode.OR:
            value = a | b
        elif op is Opcode.XOR:
            value = a ^ b
        elif op is Opcode.SHL:
            value = (a << (b & 63)) & MASK64
        elif op is Opcode.SHR:
            value = (a & MASK64) >> (b & 63)
        elif op is Opcode.ADDI:
            value = (a + instr.imm) & MASK64
        elif op is Opcode.SUBI:
            value = (a - instr.imm) & MASK64
        elif op is Opcode.ANDI:
            value = a & instr.imm
        elif op is Opcode.ORI:
            value = a | instr.imm
        elif op is Opcode.XORI:
            value = a ^ instr.imm
        elif op is Opcode.SHLI:
            value = (a << (instr.imm & 63)) & MASK64
        elif op is Opcode.SHRI:
            value = (a & MASK64) >> (instr.imm & 63)
        elif op is Opcode.MUL:
            value = (a * b) & MASK64
        elif op is Opcode.DIV:
            value = (a // b) & MASK64 if b else 0
        elif op is Opcode.FADD:
            value = a + b
        elif op is Opcode.FSUB:
            value = a - b
        elif op is Opcode.FMUL:
            value = a * b
        elif op is Opcode.FDIV:
            try:
                value = a / b
            except ZeroDivisionError:
                value = math.inf if a > 0 else -math.inf if a < 0 else 0.0
        elif is_branch:
            self._execute_branch(context, entry)
        elif op is Opcode.RDTSC:
            value = self.cycle
            if self.config.rdtsc_jitter:
                value += self._jitter.randint(0, self.config.rdtsc_jitter)
        elif op is Opcode.RDRAND:
            value = self._rdrand.getrandbits(64)
        elif op in (Opcode.NOP, Opcode.HALT, Opcode.FENCE, Opcode.TBEGIN,
                    Opcode.TEND, Opcode.TABORT):
            value = None
        else:  # pragma: no cover - every opcode is handled above
            raise NotImplementedError(f"unhandled opcode {op}")
        if not is_branch:
            entry.value = value
        self._schedule(entry, latency)

    def _execute_branch(self, context: HardwareContext, entry: ROBEntry):
        instr = entry.instr
        target = context.decoded[entry.index].target
        if instr.op is Opcode.JMP:
            entry.actual_taken = True
            entry.value = target
            entry.mispredicted = False
            return
        a = _to_signed(entry.operands[0])
        b = _to_signed(entry.operands[1])
        if instr.op is Opcode.BEQ:
            taken = a == b
        elif instr.op is Opcode.BNE:
            taken = a != b
        elif instr.op is Opcode.BLT:
            taken = a < b
        else:  # BGE
            taken = a >= b
        entry.actual_taken = taken
        correct_next = target if taken else entry.index + 1
        entry.value = correct_next
        entry.mispredicted = (entry.predicted_taken is not None
                              and entry.predicted_taken != taken)
        self.predictor.update(entry.index, taken, entry.mispredicted)

    # --- memory execution ---------------------------------------------------

    def _translate(self, context: HardwareContext, entry: ROBEntry,
                   va: int, is_write: bool) -> Tuple[Optional[int], int]:
        """TLB lookup, falling back to a hardware page walk.  Returns
        ``(paddr_or_None, latency)``; sets ``entry.fault`` on fault."""
        process = context.process
        if process is None:
            # Bare-metal mode (no kernel): identity-map addresses.
            return va, 1
        vpn = vaddr.vpn(va)
        tlb_entry, latency = self.tlbs.lookup(process.pcid, vpn)
        if tlb_entry is not None:
            return (tlb_entry.frame << vaddr.PAGE_SHIFT) | \
                vaddr.page_offset(va), latency
        walk = self.walker.walk(
            process.pcid, process.root_frame, va, is_write=is_write,
            pc=entry.index, context_id=context.context_id)
        latency += walk.latency
        entry.walk_latency = walk.latency
        if walk.faulted:
            entry.fault = walk.fault
            return None, latency
        self.tlbs.insert(process.pcid, vpn, walk.frame, walk.flags)
        return (walk.frame << vaddr.PAGE_SHIFT) | vaddr.page_offset(va), \
            latency

    def _execute_load(self, context: HardwareContext,
                      entry: ROBEntry) -> bool:
        instr = entry.instr
        va = (entry.operands[0] + instr.imm) & MASK64
        entry.addr = va
        # Store-buffer search: forward from the youngest older store
        # with a matching resolved address.  Stores with unresolved (or
        # faulted) addresses do NOT block the load — the LSU speculates
        # no-alias, and _check_memory_order_violation squashes the load
        # if the guess turns out wrong.  This optimism is what lets the
        # Fig. 6 victim's secret load run ahead of the faulting
        # counter-update store.
        forwarded = False
        forward_value = None
        for store in context.rob.stores_older_than(entry.seq):
            if store.addr_resolved and store.addr == va:
                if store.instr.width == instr.width:
                    forward_value = store.store_value
                    forwarded = True
                else:
                    return False  # partial overlap: retry after retire
        port = self.ports.try_issue(self.cycle, "load",
                                    self.config.latency_of("alu"))
        if port is None:
            return False
        entry.port_name = port.name
        if forwarded:
            entry.value = self._coerce_load_value(instr, forward_value)
            self._schedule(entry, self.config.latency_of("forward"))
            return True
        # Transaction write-buffer forwarding (committed, buffered).
        if context.in_transaction:
            for buf_va, _paddr, value, width in reversed(
                    context.txn.write_buffer):
                if buf_va == va and width == instr.width:
                    entry.value = self._coerce_load_value(instr, value)
                    self._schedule(entry,
                                   self.config.latency_of("forward"))
                    return True
        paddr, latency = self._translate(context, entry, va,
                                         is_write=False)
        if entry.fault is not None:
            self._schedule(entry, latency)
            return True
        entry.paddr = paddr
        latency += self.hierarchy.access(paddr)
        if context.in_transaction:
            context.txn.read_lines.add(line_of(paddr))
        value = self.phys.read(paddr, instr.width)
        entry.value = self._coerce_load_value(instr, value)
        self._schedule(entry, latency)
        return True

    @staticmethod
    def _coerce_load_value(instr: Instruction, value):
        if instr.op is Opcode.FLOAD:
            return float(value)
        if isinstance(value, float):
            return int(value) & MASK64
        return value & MASK64

    def _execute_store(self, context: HardwareContext, entry: ROBEntry,
                       latency: int):
        instr = entry.instr
        va = (entry.operands[0] + instr.imm) & MASK64
        entry.addr = va
        entry.store_value = entry.operands[1]
        paddr, translate_latency = self._translate(context, entry, va,
                                                   is_write=True)
        if entry.fault is None:
            entry.paddr = paddr
            entry.addr_resolved = True
            self._check_memory_order_violation(context, entry)
        self._schedule(entry, latency + translate_latency)

    def _check_memory_order_violation(self, context: HardwareContext,
                                      store: ROBEntry):
        """A younger load already executed against the address this
        store just resolved: the no-alias speculation was wrong.
        Squash from the *oldest* violating load and refetch.

        The in-flight load index holds exactly the issued-but-unretired
        loads (retire and squash unindex them), so this lookup touches
        only same-address loads instead of walking the whole ROB.  The
        bucket is insertion (issue) ordered, which out-of-order issue
        can leave unordered by seq — hence the explicit min."""
        violating = None
        for candidate in context.inflight_loads.get(store.addr, ()):
            if (candidate.seq > store.seq and not candidate.squashed
                    and candidate.state in (EntryState.EXECUTING,
                                            EntryState.COMPLETED)
                    and (violating is None
                         or candidate.seq < violating.seq)):
                violating = candidate
        if violating is None:
            return
        squashed = context.rob.squash_younger_than(violating.seq - 1)
        self._note_squash(context, squashed, "memory-order",
                          trigger=store)
        context.drop_squashed_ready()
        context.rebuild_rename()
        context.fetch_index = violating.index
        context.fetch_stall_until = self.cycle + self.config.squash_penalty

    # ------------------------------------------------------------------
    # stage 5: fetch / decode
    # ------------------------------------------------------------------

    def _fetch(self):
        budget = self.config.fetch_width
        contexts = self.contexts
        cycle = self.cycle
        rotations = self._rotations
        for context_id in rotations[(cycle + 1) % len(rotations)]:
            if budget <= 0:
                break
            context = contexts[context_id]
            if context.state is not ContextState.RUNNING:
                continue
            if cycle < context.fetch_stall_until:
                continue
            budget -= self._decode_group(context, budget)

    def _decode_group(self, context: HardwareContext, budget: int) -> int:
        """Decode this cycle's fetch group of *context* into its ROB in
        one pass: up to *budget* instructions, fewer when the ROB
        fills, the program ends or a HALT is decoded.  Returns how many
        were decoded.

        Each decode observer sees its entry as one-at-a-time decode
        showed it: ``stats.fetched`` already counts the entry,
        ``fetch_index`` still points at it, and neither the rename map,
        the ROB, the ready queue nor the fence list names it yet."""
        rob = context.rob
        entries = rob.entries
        count = min(budget, rob.capacity - len(entries))
        decoded = context.decoded
        length = len(decoded)
        index = context.fetch_index
        if count <= 0 or index >= length:
            return 0
        context_id = context.context_id
        stats = context.stats
        rename = context.rename
        int_regs = context.int_regs
        fp_regs = context.fp_regs
        replay_candidates = context.replay_candidates
        # Fetch-time wakeups arrive in seq order: every entry already
        # in the ready queue is older than the one decoded now.
        wake = context.ready.append
        stores = rob._stores
        observers = self._on_decode
        predict = self.predictor.predict
        rdrand_fenced = self.config.rdrand_fenced
        completed = EntryState.COMPLETED
        ready = EntryState.READY
        seq = context._next_seq
        done = 0
        while done < count and index < length:
            decoded_instr = decoded[index]
            entry = ROBEntry(seq, context_id, index, decoded_instr.instr,
                             decoded_instr.op_cls)
            seq += 1
            done += 1
            if index in replay_candidates:
                entry.is_replay = True
                stats.replays += 1
            stats.fetched += 1
            # Resolve source operands against the rename map / arch
            # state.
            pending = 0
            operands = entry.operands
            for slot, src in decoded_instr.sources:
                producer = rename.get(src)
                if producer is None:
                    operands[slot] = (int_regs[src] if src in int_regs
                                      else fp_regs[src])
                elif producer.state is completed and producer.fault is None:
                    operands[slot] = producer.value
                else:
                    # In-flight (or faulted: never wakes) producer.
                    producer.dependents.append((entry, slot))
                    pending += 1
            entry.pending = pending
            if observers:
                context.fetch_index = index
                for observer in observers:
                    observer(self, context, entry)
            dest = decoded_instr.dest
            if dest is not None:
                rename[dest] = entry
            # Control flow steering.
            flow = decoded_instr.flow
            if flow == FLOW_NEXT:
                index += 1
            elif flow == FLOW_BRANCH:
                predicted = predict(index)
                entry.predicted_taken = predicted
                index = decoded_instr.target if predicted else index + 1
            elif flow == FLOW_JUMP:
                index = decoded_instr.target
            else:  # FLOW_HALT
                index += 1
                # Stop fetching past the HALT; a squash/redirect resets
                # the stall if the HALT turns out to be on a wrong path.
                context.fetch_stall_until = float("inf")
            # Serialisation: fences, fenced RDRAND, and a squash
            # observer's request (the fences defense) all gate younger
            # execution until this entry retires.
            if context.serialize_next_fetch:
                context.serialize_next_fetch = False
                context.fence_seqs.append(entry.seq)
            elif decoded_instr.fence or (decoded_instr.rdrand
                                         and rdrand_fenced):
                context.fence_seqs.append(entry.seq)
            entries.append(entry)
            if decoded_instr.is_store:
                stores.append(entry)
            if pending == 0:
                entry.state = ready
                wake(entry)
            if flow == FLOW_HALT:
                break
        context.fetch_index = index
        context._next_seq = seq
        return done
