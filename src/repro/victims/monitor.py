"""Monitor programs (Figure 7).

The port-contention monitor free-runs on the victim's SMT sibling,
timing short bursts of floating-point divisions.  When the victim's
speculatively replayed code holds the (non-pipelined, shared) divider,
a burst takes visibly longer — the contention signal of §4.3/6.1.

The measurement loop is a direct analogue of Figure 7a::

    for (j = 0; j < buff; j++) {
        t1 = read_timer();
        for (i = 0; i < cont; i++)
            unit_div_contention();     // one divsd
        t2 = read_timer();
        buffer[j] = t2 - t1;
    }

``fence`` before each ``rdtsc`` plays the role of the lfence real
attack code uses so the timer reads bracket the division burst.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.program import Program, ProgramBuilder
from repro.kernel.process import Process


@dataclass(frozen=True)
class PortContentionMonitor:
    """Built monitor plus its measurement buffer location."""

    program: Program
    buffer_va: int
    measurements: int

    def read_samples(self, process: Process) -> list:
        """Collect the recorded latencies after the run."""
        return process.read_words(self.buffer_va, self.measurements)


def setup_port_contention_monitor(process: Process,
                                  measurements: int = 10_000,
                                  divs_per_sample: int = 4
                                  ) -> PortContentionMonitor:
    """Allocate the sample buffer and build the Fig. 7 monitor."""
    if measurements <= 0 or divs_per_sample <= 0:
        raise ValueError("measurements and divs_per_sample must be > 0")
    buffer_va = process.alloc(8 * measurements, "monitor-buffer")
    program = build_port_contention_monitor(
        buffer_va, measurements, divs_per_sample)
    return PortContentionMonitor(program, buffer_va, measurements)


def build_port_contention_monitor(buffer_va: int, measurements: int,
                                  divs_per_sample: int) -> Program:
    b = ProgramBuilder("port-contention-monitor")
    b.li("r1", buffer_va)        # sample cursor
    b.li("r2", 0)                # j
    b.li("r3", measurements)
    b.li("r5", divs_per_sample)
    b.fli("f0", 41.25)           # division operands stay in registers:
    b.fli("f1", 1.75)            # no cache noise inside the timed burst
    b.label("outer")
    b.fence()
    b.rdtsc("r6")
    b.li("r4", 0)                # i
    b.label("inner")
    b.fdiv("f2", "f0", "f1", comment="contention-probe")
    b.addi("r4", "r4", 1)
    b.bne("r4", "r5", "inner")
    b.fence()
    b.rdtsc("r7")
    b.sub("r8", "r7", "r6")
    b.store("r1", "r8", 0)
    b.addi("r1", "r1", 8)
    b.addi("r2", "r2", 1)
    b.bne("r2", "r3", "outer")
    b.halt()
    return b.build()
