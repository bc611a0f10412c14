"""The cells each workload runs, their fingerprints, and the goldens.

Every input is a pure function of the workload seed. A cell's
fingerprint is the part of its result that the simulation determines:
simulated runtime, mean latency, delivered packets, retransmits, RTOs,
events and the switch queue counters. At :data:`GOLDEN_SEED` each
fingerprint is compared with the digest committed in ``goldens.json``;
at any seed, a cell run twice in one benchmark run must fingerprint the
same both times.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.core.protection import ProtectionMode
from repro.experiments.bulkcell import BulkConfig
from repro.experiments.config import ExperimentConfig, QueueSetup
from repro.tcp.endpoint import TcpVariant
from repro.units import mb, us

#: Seed the goldens were recorded at (and the default ``--seed``).
GOLDEN_SEED = 1
#: Seed kept out of tuning, for checking a claimed gain on fresh inputs.
HELD_OUT_SEED = 7

WORKLOADS = ("terasort-rack", "bulk-hybrid", "farm-serve")

GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "goldens.json")

#: terasort-rack: the fig2 shallow-buffer grid at 200 us, scale 1/16.
TERASORT_SCALE = 1 / 16
TERASORT_DELAY_S = us(200)
#: farm-serve: farm-smoke-shaped cells; pool indices below this have goldens.
FARM_GOLDEN_CELLS = 1000
#: farm-serve job shape: cells shared by both clients + cells of one client.
FARM_SHARED, FARM_OWN = 4, 8

Cell = Tuple[str, object]

VARIANTS = (("tcp-ecn", TcpVariant.ECN), ("dctcp", TcpVariant.DCTCP))


def _fig2_queues(delay: float) -> List[Tuple[str, QueueSetup]]:
    red = [(f"red-{mode.value}",
            QueueSetup(kind="red", target_delay_s=delay, protection=mode))
           for mode in (ProtectionMode.DEFAULT, ProtectionMode.ECE,
                        ProtectionMode.ACK_SYN)]
    marking = QueueSetup(kind="marking", target_delay_s=delay)
    return red + [("marking", marking)]


def terasort_cells(seed: int) -> List[Cell]:
    """{tcp-ecn, dctcp} x {red-default, red-ece, red-ack+syn, marking}."""
    return [(f"{vname}/{qname}",
             ExperimentConfig(queue=queue, variant=variant, seed=seed,
                              allow_timeout=True).scaled(TERASORT_SCALE))
            for vname, variant in VARIANTS
            for qname, queue in _fig2_queues(TERASORT_DELAY_S)]


def bulk_cells(seed: int) -> List[Cell]:
    """Disjoint-pairs bulk cells in hybrid fidelity, five seeds x two CCs."""
    return [(f"{vname}/s{j}",
             BulkConfig(variant=variant, fidelity="hybrid",
                        seed=seed * 1000 + j))
            for vname, variant in VARIANTS for j in range(5)]


_FARM_QUEUES = [("droptail", QueueSetup(kind="droptail"))] + \
    _fig2_queues(us(100))


def farm_cell(seed: int, index: int) -> Cell:
    """Pool cell ``index``: farm-smoke shape (4 hosts, 2 MB Terasort)."""
    _qname, queue = _FARM_QUEUES[index % len(_FARM_QUEUES)]
    _vname, variant = VARIANTS[(index // len(_FARM_QUEUES)) % 2]
    config = replace(
        ExperimentConfig(queue=queue, variant=variant,
                         seed=seed * 100_003 + index, allow_timeout=True),
        n_hosts=4, data_bytes=mb(2), block_bytes=mb(1), n_reducers=4)
    return f"p{index}", config


def farm_job(seed: int, job: int, client: int) -> List[Cell]:
    """Job ``job`` of client 0 or 1: the pair's shared cells come first,
    so both clients' copies are queued together and run once."""
    base = job * (FARM_SHARED + 2 * FARM_OWN)
    own = base + FARM_SHARED + client * FARM_OWN
    indices = list(range(base, base + FARM_SHARED)) + \
        list(range(own, own + FARM_OWN))
    return [farm_cell(seed, i) for i in indices]


def local_cells(workload: str, seed: int) -> List[Cell]:
    return terasort_cells(seed) if workload == "terasort-rack" \
        else bulk_cells(seed)


# -- fingerprints -------------------------------------------------------------

QUEUE_FIELDS = ("arrivals", "departures", "drops_tail", "drops_early",
                "marks", "protected", "ack_drops", "syn_drops",
                "fluid_packets")


def fingerprint(result) -> Dict[str, object]:
    """The simulated outcome of one cell (a ``CellResult``)."""
    m = result.metrics
    fp = {"runtime": m.runtime, "mean_latency": m.mean_latency,
          "packets_delivered": m.packets_delivered,
          "retransmits": m.retransmits, "rtos": m.rtos,
          "flows_failed": m.flows_failed,
          "timed_out": m.extra.get("timed_out", 0.0),
          "events": result.manifest["timings"]["events"]}
    fp.update({f"queue.{f}": getattr(m.queue, f) for f in QUEUE_FIELDS})
    return fp


def digest(fp: Dict[str, object]) -> str:
    return hashlib.sha256(
        json.dumps(fp, sort_keys=True).encode()).hexdigest()[:20]


def sanity_errors(fp: Dict[str, object]) -> List[str]:
    """Outcomes no correct cell has. Timeouts and failed flows are
    simulated outcomes (fingerprinted, not errors)."""
    if not fp["packets_delivered"] or not fp["events"]:
        return ["nothing delivered"]
    return []


class Checker:
    """Checks each cell's fingerprint; collects the errors.

    At the golden seed every fingerprint must match its golden (pool
    cells beyond :data:`FARM_GOLDEN_CELLS` have none). At every seed
    repeated cells must agree with their first fingerprint.
    """

    def __init__(self, workload: str, seed: int):
        self.goldens: Optional[Dict[str, str]] = None
        if seed == GOLDEN_SEED:
            with open(GOLDENS_PATH) as fh:
                self.goldens = json.load(fh)[workload]
        self.seen: Dict[str, str] = {}
        self.errors: List[str] = []

    def check(self, label: str, fp: Dict[str, object]) -> bool:
        """True when the cell is correct; otherwise records why not."""
        problems = sanity_errors(fp)
        got = digest(fp)
        first = self.seen.setdefault(label, got)
        if first != got:
            problems.append("differs from its earlier run in this run")
        if self.goldens is not None:
            want = self.goldens.get(label)
            if want is None and not (label.startswith("p")
                                     and int(label[1:]) >= FARM_GOLDEN_CELLS):
                problems.append("no golden")
            elif want is not None and want != got:
                problems.append(f"golden {want}, got {got}: {fp}")
        for p in problems:
            self.errors.append(f"{label}: {p}")
        return not problems
