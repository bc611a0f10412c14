"""The "Linux DCTCP flaws" pack: flawed vs corrected endpoint fidelity.

Misund & Teigen ("Two flaws of the Linux DCTCP implementation",
arXiv:2211.07581) showed that the widely-deployed Linux DCTCP deviates
from the SIGCOMM'10 algorithm in ways that *inflate* the congestion
estimate α: delayed-ACK mark coalescing (a single ECE flag attributes
every byte covered by the cumulative ACK to the mark), retransmissions
sent ECT whose marks feed back into α, and an observation window that
survives an RTO with stale mark counts. The simulator's corrected stack
(byte-precise CE echo accounting, Non-ECT retransmits per RFC 3168
§6.1.5, window reset on RTO) is the default; this pack re-runs one
pinned congestion cell with each flaw re-enabled so the α gap is a
measured number rather than a claim.

The pinned cell is deliberately hostile: an 8:1 incast into a
``tinybuffer`` port (16-packet physical buffer, shallow marking
threshold), where delayed ACKs routinely cover a mix of marked and
unmarked segments and drops force retransmissions — the exact regime
where the flaws diverge from the faithful algorithm.

Every run flows through :func:`~repro.experiments.probe.run_probe_cell`,
so results carry full manifests, land in the shared result cache, and
fingerprint bit-identically for the determinism gate
(``repro smoke flaws``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.experiments.config import CellResult, QueueSetup
from repro.experiments.probe import StabilityProbeConfig, run_probe_cell
from repro.tcp.endpoint import FLAW_PROFILES, TcpVariant
from repro.units import us

__all__ = [
    "FLAWS_PROFILES",
    "flaws_cell",
    "flaws_grid",
    "run_flaws",
    "render_flaws_table",
]

#: Row order of the comparison table: the corrected stack first (profile
#: ``None``), then the all-flaws profile, then each flaw in isolation.
FLAWS_PROFILES: Tuple[Optional[str], ...] = (
    None,
    "linux-dctcp",
    "coalesce",
    "retx-mark",
    "alpha-freeze",
)


def flaws_cell(profile: Optional[str], seed: int = 42,
               duration_s: float = 1.0) -> StabilityProbeConfig:
    """The pinned flaws cell with ``profile`` applied.

    8 long-lived DCTCP flows incast into one tiny-buffer port held at a
    100 µs marking threshold for ``duration_s`` of simulated time.
    """
    return StabilityProbeConfig(
        queue=QueueSetup(kind="tinybuffer", buffer_packets=16,
                         target_delay_s=us(100)),
        variant=TcpVariant.DCTCP,
        n_senders=8,
        duration_s=duration_s,
        seed=seed,
        flaw_profile=profile,
    ).validate()


def flaws_grid(seed: int = 42,
               duration_s: float = 1.0) -> List[StabilityProbeConfig]:
    """All profiles of the pinned cell, corrected stack first."""
    return [flaws_cell(p, seed=seed, duration_s=duration_s)
            for p in FLAWS_PROFILES]


def _row(profile: Optional[str], cell: CellResult) -> Dict[str, object]:
    m = cell.metrics
    return {
        "profile": profile or "fixed",
        "label": cell.config.label(),
        "alpha_timeavg": m.extra.get("dctcp_alpha_timeavg", 0.0),
        "alpha_mean": m.extra.get("dctcp_alpha_mean", 0.0),
        "alpha_max": m.extra.get("dctcp_alpha_max", 0.0),
        "goodput_bps": m.extra.get("goodput_bps", 0.0),
        "retransmits": m.retransmits,
        "rtos": m.rtos,
        "marks": m.queue.marks,
        "drops": m.queue.drops_tail + m.queue.drops_early,
    }


def run_flaws(
    seed: int = 42,
    duration_s: float = 1.0,
) -> Tuple[List[CellResult], List[Dict[str, object]]]:
    """Run the whole pack; returns (cell results, comparison rows).

    Runs are unarmed; the ``flaws`` smoke gate replays every profile
    with a fresh validation suite per armed run.
    """
    cells: List[CellResult] = []
    rows: List[Dict[str, object]] = []
    for profile in FLAWS_PROFILES:
        cfg = flaws_cell(profile, seed=seed, duration_s=duration_s)
        cell = run_probe_cell(cfg)
        cells.append(cell)
        rows.append(_row(profile, cell))
    return cells, rows


def render_flaws_table(rows: List[Dict[str, object]]) -> str:
    """ASCII comparison table, one line per profile."""
    hdr = (f"{'profile':<14} {'alpha_avg':>9} {'alpha_end':>9} "
           f"{'goodput':>12} {'retx':>6} {'rtos':>5} {'marks':>7} "
           f"{'drops':>6}")
    lines = [hdr, "-" * len(hdr)]
    base = rows[0]["alpha_timeavg"] if rows else 0.0
    for r in rows:
        delta = ""
        if r["profile"] != "fixed" and base > 0:
            delta = f"  ({(r['alpha_timeavg'] - base) / base:+.0%} vs fixed)"
        lines.append(
            f"{r['profile']:<14} {r['alpha_timeavg']:>9.4f} "
            f"{r['alpha_mean']:>9.4f} {r['goodput_bps'] / 1e6:>10.1f}Mb "
            f"{r['retransmits']:>6d} {r['rtos']:>5d} {r['marks']:>7d} "
            f"{r['drops']:>6d}{delta}"
        )
    return "\n".join(lines)
