"""A fixed in-process speed reference for the host the benchmark runs on.

A shared host's speed drifts by a fifth or more within a minute, far more
than a cell's cost changes between two versions of the program. The
benchmark therefore times, in its own process and between the program's
timed calls, a small fixed event loop — a heap of events whose callbacks
reschedule one another, the same kind of interpreter work the simulator
does — and scales its times to a nominal host on which that loop takes
:data:`NOMINAL_S`. Over ten-second stretches the loop's speed and the
simulator's moved together (correlation 0.92 on a 2-CPU shared VM), so
the scaled figures keep the program's own speed and shed most of the
host's drift.

The loop uses only the standard library and runs with the cyclic garbage
collector off, so neither a change to the program nor the size of the
program's heap changes how long it takes on a given host.
"""

from __future__ import annotations

import gc
import heapq
from time import perf_counter
from typing import Sequence

#: Events one full loop runs, and its time on the nominal host (about
#: its time on the 2-CPU VM the benchmark was built on). Scaled times are
#: host times multiplied by ``NOMINAL_S / measured``.
EVENTS, NOMINAL_S = 9000, 0.030
#: A short loop, for pairing with one operation of a few hundred
#: microseconds, and its time on the same nominal host.
SHORT_EVENTS, SHORT_NOMINAL_S = 40, 0.000105
#: Callback chains in flight at once.
CHAINS = 8


class _Event:
    __slots__ = ("t", "seq", "callback")

    def __init__(self, t: float, seq: int, callback) -> None:
        self.t, self.seq, self.callback = t, seq, callback

    def __lt__(self, other: "_Event") -> bool:
        return (self.t, self.seq) < (other.t, other.seq)


def _loop(events: int) -> int:
    heap: list = []
    seq = [0]
    hits: dict = {}

    def push(t: float, callback) -> None:
        seq[0] += 1
        heapq.heappush(heap, _Event(t, seq[0], callback))

    def hop(chain: int):
        def callback(now: float) -> None:
            hits[chain] = hits.get(chain, 0) + 1
            if seq[0] < events:
                push(now + 1e-6 * (1 + (chain * 7919 + seq[0]) % 13),
                     hop((chain + 1) % CHAINS))
        return callback

    for chain in range(CHAINS):
        push(chain * 1e-7, hop(chain))
    while heap:
        event = heapq.heappop(heap)
        event.callback(event.t)
    return sum(hits.values())


def _timed_loop(events: int) -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        done = _loop(events)
        elapsed = perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if done != events:
        raise RuntimeError(f"speed reference ran {done} of {events} events")
    return elapsed


def reference_s() -> float:
    """Host seconds one full reference loop takes now."""
    return _timed_loop(EVENTS)


def short_slowdown() -> float:
    """How much slower than nominal the host runs right now, from one
    short loop: for scaling the operation timed just before it."""
    return _timed_loop(SHORT_EVENTS) / SHORT_NOMINAL_S


def slowdown(samples: Sequence[float]) -> float:
    """How much slower than nominal the host ran while ``samples`` were
    taken (1.0 with no samples): their mean over :data:`NOMINAL_S`."""
    if not samples:
        return 1.0
    return sum(samples) / len(samples) / NOMINAL_S
