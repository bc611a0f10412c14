"""Measurement helpers shared by the workload drivers."""

from __future__ import annotations

import resource
from statistics import median
from typing import Dict, List, Sequence, Tuple

from speedref import slowdown


def pct(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile by linear interpolation (0 for no values)."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (``ru_maxrss`` is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Outcome:
    """What one run measured: metrics, cells attempted, cells failed."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.notes: List[str] = []

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def cell(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1

    def fail(self, message: str, cell: bool = True) -> None:
        """Record a failed cell, or (``cell=False``) a failed check."""
        self.attempted += 1 if cell else 0
        self.failed += 1
        self.errors.append(message)

    def put_phases(self, prefix: str, blocks: List["Phase"]) -> None:
        """``<prefix>cells_per_s``, the median over the run's blocks of
        each block's rate, and ``<prefix>result_p50_s``/``p90_s`` over the
        latencies of all blocks (a block may hold only a few cells).

        Every figure is scaled to the nominal host of ``speedref``; the
        notes give the host figures as measured.
        """
        blocks = [b for b in blocks if b.cells]
        if not blocks:  # every cell failed: nothing was served
            self.errors.append(f"no {prefix or 'cold '}cells completed")
            blocks = [Phase()]
        scaled = [b.scaled() for b in blocks]
        self.put(f"{prefix}cells_per_s", median(r for r, _l in scaled), "1/s")
        latency = [x for _r, lat in scaled for x in lat]
        self.put(f"{prefix}result_p50_s", pct(latency, 50), "s")
        self.put(f"{prefix}result_p90_s", pct(latency, 90), "s")
        host = [x for b in blocks for x in b.latency]
        self.notes.append(
            f"{prefix.rstrip('_') or 'cold'}: {sum(b.cells for b in blocks)} "
            f"cells in {sum(b.wall for b in blocks):.2f} s over "
            f"{len(blocks)} blocks; {len(latency)} latency samples; "
            f"host slowdown {median(b.slowdown() for b in blocks):.3f}; "
            f"as measured {median(b.rate() for b in blocks):.4g} cells/s, "
            f"p50 {pct(host, 50):.4g} s, p90 {pct(host, 90):.4g} s")


class Phase:
    """Cells completed, wall time and per-cell latencies of one phase
    (cold or warm) of one block of a run, with the speed-reference times
    taken during or around it (``ref``), or else each latency's own
    slowdown (``paired``)."""

    def __init__(self) -> None:
        self.cells = 0
        self.wall = 0.0
        self.latency: List[float] = []
        self.ref: List[float] = []
        self.paired: List[float] = []

    def rate(self) -> float:
        return self.cells / self.wall if self.wall else 0.0

    def slowdown(self) -> float:
        """The host's slowdown over the phase (median of paired ones)."""
        return median(self.paired) if self.paired else slowdown(self.ref)

    def scaled(self) -> Tuple[float, List[float]]:
        """The rate and latencies on the nominal host."""
        if self.paired:
            latency = [x / s for x, s in zip(self.latency, self.paired)]
            host_s = sum(self.latency)
            return (self.rate() * host_s / sum(latency) if host_s
                    else 0.0), latency
        slow = slowdown(self.ref)
        return self.rate() * slow, [x / slow for x in self.latency]

    def add(self, other: "Phase") -> None:
        self.cells += other.cells
        self.latency += other.latency
