"""LEASH-style reactive throttling (arXiv:2109.03998).

LEASH assumes attacks *will* slip past static defenses and instead
watches runtime behaviour: a context whose squash rate looks like a
replay storm gets its issue bandwidth cut until the storm subsides.
The detector here is deliberately simple and fully deterministic —
it reads ``squash_events`` from the per-context
:class:`~repro.observability.stats.ContextStats` group that is
already registered in the machine's
:class:`~repro.observability.registry.MetricsRegistry`, sampled at
fixed ``window_cycles`` boundaries, with two-threshold hysteresis:

* rate ≥ ``hi`` over a window → throttle **on**;
* rate ≤ ``lo``             → throttle **off**;
* in between                → keep the previous state.

While throttled, a context may issue at most
``issue_width // throttle_factor`` instructions per cycle (default:
half the core's issue bandwidth, floor one — the gate never
deadlocks).  MicroScope's replay loop is exactly such a storm: one
squash per window, thousands of windows; benign code mispredicts far
below ``hi``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import DefenseHookConfig, MachineConfig
from repro.cpu.context import HardwareContext
from repro.cpu.rob import ROBEntry
from repro.evaluation.defenses.mechanisms import (
    DefenseMechanism,
    register_mechanism,
)

#: Default detector knobs, sized to the replay storm this repo's
#: attacks actually produce: one squash every ~2,500 cycles (a
#: ``fault_handler_cost=2000`` page fault plus refetch), i.e. ≥ 3 per
#: 8,192-cycle window, versus isolated launch-time paging and benign
#: mispredict noise afterwards.
LEASH_HI_SQUASHES = 3
LEASH_LO_SQUASHES = 1
LEASH_WINDOW_CYCLES = 8192


@register_mechanism("leash")
class LeashMechanism(DefenseMechanism):
    """Squash-rate hysteresis driving a per-context issue limiter."""

    scheme = "leash"

    def __init__(self, hi: int = LEASH_HI_SQUASHES,
                 lo: int = LEASH_LO_SQUASHES,
                 window_cycles: int = LEASH_WINDOW_CYCLES,
                 throttle_factor: int = 2):
        if lo > hi:
            raise ValueError("hysteresis requires lo <= hi")
        self.hi = hi
        self.lo = lo
        self.window_cycles = window_cycles
        self.throttle_factor = throttle_factor
        self._core = None
        self._throttled_counter = None
        #: context id -> squash_events seen at the last window edge.
        self._last_seen: Dict[int, int] = {}
        #: context id -> cycle the current window started.
        self._window_start: Dict[int, int] = {}
        #: context id -> throttle engaged?
        self._state: Dict[int, bool] = {}
        #: context id -> (cycle, issues counted that cycle).
        self._issued: Dict[int, Tuple[int, int]] = {}

    # --- wiring -----------------------------------------------------------

    def attach(self, machine) -> None:
        super().attach(machine)
        self._core = machine.core
        self._throttled_counter = machine.metrics.counter(
            "defense.leash.throttled_issues")

    # --- detector ---------------------------------------------------------

    def _maybe_roll(self, context: HardwareContext) -> None:
        cid = context.context_id
        cycle = self._core.cycle
        start = self._window_start.get(cid, 0)
        if cycle - start < self.window_cycles:
            return
        events = context.stats.squash_events
        rate = events - self._last_seen.get(cid, 0)
        if rate >= self.hi:
            self._state[cid] = True
        elif rate <= self.lo:
            self._state[cid] = False
        self._last_seen[cid] = events
        self._window_start[cid] = cycle

    def throttled(self, context: HardwareContext) -> bool:
        """Poll (and roll) the detector for *context*."""
        self._maybe_roll(context)
        return self._state.get(context.context_id, False)

    # --- limiter ----------------------------------------------------------

    def _issue_budget(self) -> int:
        return max(1, self._core.config.issue_width
                   // self.throttle_factor)

    def gate(self, core, context: HardwareContext,
             entry: ROBEntry) -> bool:
        """Hold issues past a throttled context's per-cycle budget."""
        if not self.throttled(context):
            return True
        cycle, count = self._issued.get(context.context_id, (-1, 0))
        if cycle != self._core.cycle:
            count = 0
        if count < self._issue_budget():
            return True
        if self._throttled_counter is not None:
            self._throttled_counter.inc()
        return False

    def on_issue(self, core, context: HardwareContext,
                 entry: ROBEntry) -> None:
        """Count the issue against this cycle's budget."""
        cid = context.context_id
        cycle, count = self._issued.get(cid, (-1, 0))
        if cycle != self._core.cycle:
            cycle, count = self._core.cycle, 0
        self._issued[cid] = (cycle, count + 1)

    # --- snapshot support -------------------------------------------------

    def capture(self) -> tuple:
        return (dict(self._last_seen), dict(self._window_start),
                dict(self._state), dict(self._issued))

    def restore(self, state: tuple) -> None:
        last_seen, window_start, throttle, issued = state
        self._last_seen = dict(last_seen)
        self._window_start = dict(window_start)
        self._state = dict(throttle)
        self._issued = dict(issued)


def leash_machine(**params) -> MachineConfig:
    """A platform config with the LEASH throttler installed."""
    return MachineConfig(defense=DefenseHookConfig(
        scheme="leash", params=dict(params)))


@dataclass
class LeashReport:
    """Hysteresis trace of the detector under a synthetic squash
    storm followed by quiet windows."""

    window_cycles: int
    hi: int
    lo: int
    #: Throttle state sampled after each simulated window.
    trace: List[bool]
    #: Window index the throttle first engaged (None = never).
    engaged_at: Optional[int]
    #: Window index it released again (None = never).
    released_at: Optional[int]

    @property
    def hysteresis_observed(self) -> bool:
        return self.engaged_at is not None \
            and self.released_at is not None \
            and self.released_at > self.engaged_at


def evaluate_leash(storm_windows: int = 3, quiet_windows: int = 3,
                   squashes_per_storm_window: int = 6) -> LeashReport:
    """Drive the detector through a squash storm and the quiet that
    follows, sampling the throttle state at every window edge."""
    from repro.cpu.machine import Machine
    machine = Machine(leash_machine())
    mechanism = machine.defense
    context = machine.contexts[0]
    trace: List[bool] = []
    engaged_at: Optional[int] = None
    released_at: Optional[int] = None
    for window in range(storm_windows + quiet_windows):
        if window < storm_windows:
            context.stats.squash_events += squashes_per_storm_window
        machine.step(mechanism.window_cycles)
        state = mechanism.throttled(context)
        trace.append(state)
        if state and engaged_at is None:
            engaged_at = window
        if not state and engaged_at is not None \
                and released_at is None and window >= storm_windows:
            released_at = window
    return LeashReport(
        window_cycles=mechanism.window_cycles,
        hi=mechanism.hi, lo=mechanism.lo, trace=trace,
        engaged_at=engaged_at, released_at=released_at)
