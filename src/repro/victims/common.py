"""Shared conventions for victim programs.

Victim builders tag the attack-relevant instructions with well-known
comments so attack drivers can locate them without magic indices:

* :data:`REPLAY_HANDLE` — the memory access the Replayer faults on;
* :data:`TRANSMIT` — the instruction(s) that leak over a side channel
  (the paper's "transmit computation", after [32]);
* :data:`PIVOT` — the §4.2.2 instruction used to step between
  iterations.
"""

from __future__ import annotations

REPLAY_HANDLE = "replay-handle"
TRANSMIT = "transmit"
PIVOT = "pivot"
