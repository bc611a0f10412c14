"""Fixed-K ECN study on the leaf–spine fabric.

The related ``cloud-dcn-ecn`` experiment family (ROADMAP item 1): RED
collapsed to a single threshold (``min_th == max_th == K`` — the
"Fixed-K" configuration every DCTCP deployment actually runs) driving a
partition-aggregate incast across a two-tier Clos fabric, with K as the
primary control knob. The grid crosses:

* **K** — the marking threshold in packets (the Tiny-Buffer/Curvy-RED
  axis: too small starves throughput, too large defeats the latency
  goal and, per the paper, ACK drops explode first);
* **offered load** — query rate as a fraction of the fan-in capacity;
* **fan-in N** — responses converging on the aggregator;
* **protection mode** — the paper's patch ({default, ECE-bit, ACK+SYN});
* **TCP variant** — classic ECN (NewReno+ECN) vs DCTCP;
* **seeds**.

Every response crosses the fabric by construction: the aggregator is
pinned to the first host on leaf 0 and the workers are the hosts on the
*other* leaves, so the fan-in shares the spine→leaf0 uplinks — the
oversubscribed bottleneck :func:`~repro.net.topology.build_leaf_spine`
now exposes in ``uplink_ports``. Reported per cell: FCT slowdown
p50/p95/p99 and query-completion tails (``manifest["fixedk"]["rpc"]``),
the uplink ACK-loss rate (the paper's headline pathology), and the dense
queue-depth series of the bottleneck ports — which the PR-6 stability
layer classifies into the K-vs-load regime maps
(:func:`build_regime_maps`).

:func:`run_fixedk_cell` mirrors :func:`~repro.experiments.runner.run_cell`
(same tracer/validation/manifest plumbing, and ``run_cell`` dispatches
here for a :class:`FixedKConfig`), so fixedk cells flow through the
parallel sweep runner, the result cache, resume, and the armed-checker
bit-identity smoke unchanged.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.monitor import QueueMonitor
from repro.core.protection import ProtectionMode
from repro.core.red import RedParams, RedQueue
from repro.errors import ConfigError
from repro.experiments.config import SHALLOW_BUFFER_PACKETS, CellResult
from repro.net.topology import build_leaf_spine
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.stats.collect import LatencyCollector, RunMetrics
from repro.tcp.endpoint import TcpConfig, TcpVariant
from repro.units import gbps, us
from repro.workloads.rpc import PartitionAggregateWorkload

__all__ = [
    "FixedKConfig",
    "run_fixedk_cell",
    "fixedk_grid",
    "fixedk_smoke_cells",
    "render_fixedk_table",
    "FixedKRegimeMap",
    "build_regime_maps",
    "render_regime_grid",
]

FIXEDK_SCHEMA = "repro.fixedk/v1"

#: Default full-grid axes (kept modest: the CLI lets you widen them).
DEFAULT_K_VALUES = (4, 8, 16, 32, 64)
DEFAULT_LOADS = (0.4, 0.8)
DEFAULT_FANOUTS = (4, 8)
DEFAULT_PROTECTIONS = (
    ProtectionMode.DEFAULT, ProtectionMode.ECE, ProtectionMode.ACK_SYN)
DEFAULT_VARIANTS = (TcpVariant.ECN, TcpVariant.DCTCP)


@dataclass(frozen=True)
class FixedKConfig:
    """One Fixed-K cell: incast onto a pinned aggregator across the fabric.

    ``k_packets`` parameterises the switch RED queues directly (min_th ==
    max_th == K). ``gentle=False`` (default) is the *pure step*: every
    packet at or above K takes the early action. ``gentle=True`` is the
    NS-2 *gentle step* — probability ramps ``max_p``→1 between K and 2K
    (see the :class:`~repro.core.red.RedParams` docstring). ``use_avg``
    switches from the instantaneous queue (the DCTCP recommendation) to
    the classic EWMA.

    ``load`` is the offered fraction of the aggregator's fan-in capacity
    (the min of its edge link and the spine→leaf plane into its rack);
    the query rate derives from it via :meth:`rate_qps`.

    ``uplink_rates_bps`` (per spine) models asymmetric fabrics — the
    paper's 5 Gbps-bottleneck scenario pins one spine plane slower than
    the rest. When None, every uplink runs at
    ``hosts_per_leaf * link_rate / (oversubscription * n_spines)``.
    """

    k_packets: int = 16
    load: float = 0.6
    fanout: int = 4
    protection: ProtectionMode = ProtectionMode.DEFAULT
    variant: TcpVariant = TcpVariant.ECN
    # Fixed-K marking semantics
    gentle: bool = False
    use_avg: bool = False
    max_p: float = 1.0           #: gentle-step ramp start (unused when pure)
    buffer_packets: int = SHALLOW_BUFFER_PACKETS
    # fabric
    n_leaves: int = 4
    n_spines: int = 2
    hosts_per_leaf: int = 4
    link_rate_bps: float = gbps(1)
    link_delay_s: float = us(20)
    oversubscription: float = 2.0
    uplink_rates_bps: Optional[Tuple[float, ...]] = None
    per_packet_ecmp: bool = False
    # workload
    rpc_response_bytes: int = 20_000
    rpc_deadline_s: Optional[float] = 0.02
    duration_s: float = 0.4
    drain_s: float = 0.2
    monitor_interval_s: float = 0.001
    seed: int = 42
    #: "packet" | "hybrid" (see repro.sim.fluid). RPC responses are far
    #: below the fluid size floor, so hybrid mode exists here to prove
    #: the tier leaves short-flow cells untouched.
    fidelity: str = "packet"

    @property
    def n_hosts(self) -> int:
        """Total hosts in the fabric."""
        return self.n_leaves * self.hosts_per_leaf

    @property
    def max_fanout(self) -> int:
        """Workers available outside the aggregator's rack."""
        return (self.n_leaves - 1) * self.hosts_per_leaf

    def validate(self) -> "FixedKConfig":
        """Raise :class:`ConfigError` on nonsensical values; return self."""
        if self.k_packets < 1:
            raise ConfigError(f"K must be >= 1 packet, got {self.k_packets}")
        if self.k_packets > self.buffer_packets:
            raise ConfigError(
                f"K={self.k_packets} above the physical buffer "
                f"({self.buffer_packets} packets) never marks")
        if not (0.0 < self.load <= 2.0):
            raise ConfigError(f"load must be in (0, 2], got {self.load}")
        if self.n_leaves < 2:
            raise ConfigError("need >= 2 leaves for cross-rack incast")
        if self.n_spines < 1 or self.hosts_per_leaf < 1:
            raise ConfigError("fabric dimensions must be positive")
        if not (1 <= self.fanout <= self.max_fanout):
            raise ConfigError(
                f"fanout {self.fanout} needs 1..{self.max_fanout} remote "
                f"workers ({self.n_leaves} leaves x {self.hosts_per_leaf})")
        if self.oversubscription < 1.0:
            raise ConfigError("oversubscription factor must be >= 1")
        if (self.uplink_rates_bps is not None
                and len(self.uplink_rates_bps) != self.n_spines):
            raise ConfigError(
                f"uplink_rates_bps needs {self.n_spines} per-spine entries, "
                f"got {len(self.uplink_rates_bps)}")
        if self.rpc_response_bytes < 1:
            raise ConfigError("response size must be positive")
        if self.duration_s <= 0 or self.drain_s < 0:
            raise ConfigError("duration must be positive, drain >= 0")
        if not (0.0 < self.monitor_interval_s < self.duration_s):
            raise ConfigError("monitor interval must be in (0, duration)")
        if not (0.0 < self.max_p <= 1.0):
            raise ConfigError(f"max_p must be in (0, 1], got {self.max_p}")
        if self.fidelity not in ("packet", "hybrid"):
            raise ConfigError(f"unknown fidelity {self.fidelity!r}")
        return self

    # -- derived knobs --------------------------------------------------------

    def uplink_rates(self) -> Tuple[float, ...]:
        """Resolved per-spine uplink rates (bps)."""
        if self.uplink_rates_bps is not None:
            return tuple(float(r) for r in self.uplink_rates_bps)
        rate = (self.hosts_per_leaf * self.link_rate_bps
                / (self.oversubscription * self.n_spines))
        return (rate,) * self.n_spines

    def fanin_capacity_bps(self) -> float:
        """Structural capacity of the fan-in path into the aggregator.

        Responses traverse spine→leaf0 (one link per spine) and then the
        aggregator's edge downlink; the tighter of the two bounds the
        achievable aggregate response rate.
        """
        return min(self.link_rate_bps, sum(self.uplink_rates()))

    def rate_qps(self) -> float:
        """Query rate realising ``load`` on the fan-in bottleneck."""
        per_query_bits = self.fanout * self.rpc_response_bytes * 8.0
        return self.load * self.fanin_capacity_bps() / per_query_bits

    def red_params(self) -> RedParams:
        """The Fixed-K RED parameterisation for every switch port."""
        return RedParams(
            min_th=float(self.k_packets),
            max_th=float(self.k_packets),
            max_p=self.max_p,
            gentle=self.gentle,
            ecn=True,
            use_instantaneous=not self.use_avg,
            protection=self.protection,
        )

    def tcp_config(self) -> TcpConfig:
        """Transport configuration for the response flows."""
        return TcpConfig(variant=self.variant)

    def label(self) -> str:
        """Human-readable cell id, ``fixedk/``-prefixed (grid-unique)."""
        extras = ""
        if self.gentle:
            extras += "/gentle"
        if self.use_avg:
            extras += "/avg"
        if self.per_packet_ecmp:
            extras += "/spray"
        if self.fidelity == "hybrid":
            extras += "/hybrid"
        return (f"fixedk/{self.variant}/{self.protection}/K{self.k_packets}"
                f"/l{self.load:g}/n{self.fanout}/s{self.seed}{extras}")

    # -- sweep-axis helpers ---------------------------------------------------

    def with_k(self, k: int) -> "FixedKConfig":
        """Copy with the marking threshold replaced."""
        return replace(self, k_packets=k)

    def with_load(self, load: float) -> "FixedKConfig":
        """Copy with the offered load replaced."""
        return replace(self, load=load)


def run_fixedk_cell(
    config: FixedKConfig,
    telemetry: Optional["Telemetry"] = None,  # noqa: F821 - forward ref
    checks: Optional["ValidationSuite"] = None,  # noqa: F821 - forward ref
) -> CellResult:
    """Execute one Fixed-K cell and return its measurements.

    Queries are issued for ``duration_s`` simulated seconds, then the
    workload stops and the run drains (up to ``drain_s``) so in-flight
    queries complete. The bottleneck ports — every leaf↔spine uplink
    plus the aggregator's ToR downlink — are sampled every
    ``monitor_interval_s`` into ``CellResult.snapshots`` (the stability
    layer's input), and the per-query/per-flow tails plus uplink
    ACK-loss accounting land under ``manifest["fixedk"]``.
    """
    wall_start = _time.perf_counter()
    config.validate()
    sim = Simulator()
    rng = RngRegistry(seed=config.seed)
    tracer = telemetry.tracer if telemetry is not None else None
    if checks is not None and tracer is None:
        from repro.sim.trace import Tracer

        tracer = Tracer()

    params = config.red_params()

    def qdisc_factory(name: str):
        return RedQueue(config.buffer_packets, params,
                        rand=rng.uniform_fn(f"red.{name}"), name=name)

    spec = build_leaf_spine(
        sim,
        config.n_leaves,
        config.n_spines,
        config.hosts_per_leaf,
        switch_qdisc=qdisc_factory,
        host_qdisc=qdisc_factory,
        link_rate_bps=config.link_rate_bps,
        link_delay_s=config.link_delay_s,
        uplink_rate_bps=config.uplink_rates(),
        per_packet_ecmp=config.per_packet_ecmp,
        tracer=tracer,
    )
    if checks is not None:
        checks.attach(sim, spec.network, tracer)
    latency = LatencyCollector().attach(spec.network)

    fluid = None
    if config.fidelity == "hybrid":
        from repro.sim.fluid import FluidManager

        fluid = FluidManager(sim, spec.network, latency_credit=latency.credit)

    # Bottleneck instrumentation: the aggregator's ToR downlink (first
    # host-facing hot port) plus every fabric uplink.
    monitors: List[QueueMonitor] = []
    for port in [spec.hot_ports[0]] + spec.uplink_ports:
        mon = QueueMonitor(sim, port.qdisc, config.monitor_interval_s)
        mon.start()
        monitors.append(mon)

    if telemetry is not None:
        telemetry.attach(sim, spec, engine=None)

    # Aggregator pinned to leaf 0's first host; workers are every host on
    # the *other* leaves, so all responses cross the spine plane.
    aggregator = spec.hosts[0]
    remote = spec.hosts[config.hosts_per_leaf:]
    wl = PartitionAggregateWorkload(
        sim, [aggregator] + remote, config.tcp_config(),
        rng.stream("workload.fixedk"),
        rate_qps=config.rate_qps(), fanout=config.fanout,
        response_bytes=config.rpc_response_bytes,
        deadline_s=config.rpc_deadline_s,
        aggregator_index=0, name="fixedk-rpc",
    )
    wl.on_idle = sim.stop
    wl.start()
    sim.schedule(config.duration_s, wl.stop)
    sim.run(until=config.duration_s + config.drain_s)
    for mon in monitors:
        mon.stop()

    flows = wl.flow_results
    completed = [f for f in flows if not f.failed]
    metrics = RunMetrics(
        runtime=sim.now,
        bytes_transferred=sum(f.nbytes for f in completed),
        n_nodes=config.n_hosts,
        mean_latency=latency.mean,
        p99_latency=latency.percentile(99),
        packets_delivered=latency.count,
        queue=spec.network.aggregate_switch_stats(),
        flows_completed=len(completed),
        flows_failed=sum(1 for f in flows if f.failed),
        retransmits=sum(f.retransmits for f in flows),
        rtos=sum(f.rtos for f in flows),
        syn_retries=sum(f.syn_retries for f in flows),
        extra={
            "k_packets": float(config.k_packets),
            "load": config.load,
            "fanout": float(config.fanout),
            "rate_qps": config.rate_qps(),
            "queries_completed": float(len(wl.results)),
            "queries_open_at_end": float(wl.queries_open),
        },
    )
    profile = telemetry.finish(sim) if telemetry is not None else None

    snapshots = [s for mon in monitors for s in mon.snapshots]
    if telemetry is not None and telemetry.queue_recorder is not None:
        snapshots.extend(telemetry.queue_recorder.snapshots())

    from repro.telemetry.manifest import build_manifest
    from repro.workloads.metrics import rpc_bucket

    manifest = build_manifest(
        config,
        metrics,
        wall_s=_time.perf_counter() - wall_start,
        events=sim.events_processed,
        telemetry_snapshot=(telemetry.snapshot() if telemetry is not None
                            else None),
        profile=profile,
        kind="fixedk-cell",
    )
    manifest["fixedk"] = {
        "schema": FIXEDK_SCHEMA,
        "k_packets": config.k_packets,
        "load": config.load,
        "fanout": config.fanout,
        "protection": str(config.protection),
        "variant": str(config.variant),
        "gentle": config.gentle,
        "use_avg": config.use_avg,
        "per_packet_ecmp": config.per_packet_ecmp,
        "rate_qps": config.rate_qps(),
        "fanin_capacity_bps": config.fanin_capacity_bps(),
        "uplink_rates_bps": list(config.uplink_rates()),
        "rpc": rpc_bucket(wl, config.link_rate_bps),
        "uplinks": _uplink_bucket(spec.uplink_ports),
    }
    if fluid is not None:
        manifest["fluid"] = fluid.summary()
    if checks is not None:
        checks.finish()
        manifest["validation"] = checks.as_dict()
    return CellResult(config=config, metrics=metrics, snapshots=snapshots,
                      manifest=manifest)


def _uplink_bucket(uplink_ports) -> Dict[str, object]:
    """ACK-loss / marking accounting over the fabric uplinks only.

    The paper's pathology is disproportionate ACK loss; on a leaf–spine
    it concentrates on these ports, which aggregate switch stats dilute
    with the (mostly idle) ToR downlinks.
    """
    totals = {"arrivals": 0, "departures": 0, "marks": 0, "drops_tail": 0,
              "drops_early": 0, "protected": 0, "ect_arrivals": 0,
              "ect_drops": 0, "ack_arrivals": 0, "ack_drops": 0,
              "syn_arrivals": 0, "syn_drops": 0}
    per_port = []
    for port in uplink_ports:
        s = port.qdisc.stats
        row = {"name": port.name}
        for key in totals:
            val = getattr(s, key)
            totals[key] += val
            row[key] = val
        per_port.append(row)
    bucket: Dict[str, object] = dict(totals)
    bucket["ports"] = len(per_port)
    bucket["ack_loss_rate"] = (
        totals["ack_drops"] / totals["ack_arrivals"]
        if totals["ack_arrivals"] else 0.0)
    bucket["mark_rate"] = (
        totals["marks"] / totals["arrivals"] if totals["arrivals"] else 0.0)
    bucket["per_port"] = per_port
    return bucket


# -- grids ---------------------------------------------------------------------


def fixedk_grid(
    k_values: Sequence[int] = DEFAULT_K_VALUES,
    loads: Sequence[float] = DEFAULT_LOADS,
    fanouts: Sequence[int] = DEFAULT_FANOUTS,
    protections: Sequence[ProtectionMode] = DEFAULT_PROTECTIONS,
    variants: Sequence[TcpVariant] = DEFAULT_VARIANTS,
    seeds: Sequence[int] = (42,),
    base: Optional[FixedKConfig] = None,
) -> List[Tuple[str, FixedKConfig]]:
    """The Fixed-K work list: K × load × fan-in × protection × variant × seed.

    Compatible with :func:`~repro.experiments.parallel.run_cells` (and
    therefore the result cache and resume logic). ``base`` supplies the
    fabric/workload knobs every cell shares.
    """
    base = base or FixedKConfig()
    cells: List[Tuple[str, FixedKConfig]] = []
    for variant in variants:
        for protection in protections:
            for load in loads:
                for fanout in fanouts:
                    for k in k_values:
                        for seed in seeds:
                            cfg = replace(
                                base, k_packets=int(k), load=float(load),
                                fanout=int(fanout), protection=protection,
                                variant=variant, seed=int(seed),
                            )
                            cells.append((cfg.label(), cfg))
    return cells


def fixedk_smoke_cells(seed: int = 42) -> List[Tuple[str, FixedKConfig]]:
    """The pinned mini-grid the ``fixedk`` smoke gate replays.

    2 K values × 2 fan-ins × 2 protection modes on a small 3-leaf /
    2-spine fabric with a short horizon — 8 cells, each cheap enough to
    run three times (twice plain, once armed) in CI.
    """
    base = FixedKConfig(
        n_leaves=3, n_spines=2, hosts_per_leaf=3,
        load=0.7, duration_s=0.1, drain_s=0.15,
        monitor_interval_s=0.0005, seed=seed,
    )
    return fixedk_grid(
        k_values=(8, 32), loads=(0.7,), fanouts=(3, 6),
        protections=(ProtectionMode.DEFAULT, ProtectionMode.ECE),
        variants=(TcpVariant.ECN,), seeds=(seed,), base=base,
    )


# -- reporting -----------------------------------------------------------------


def _fmt(value, spec: str = ".3g") -> str:
    if value is None:
        return "-"
    return format(value, spec)


def render_fixedk_table(results: Dict[str, CellResult]) -> str:
    """ASCII FCT-vs-K table: one row per cell, tails and ACK loss beside K.

    Columns: the grid coordinates, response FCT slowdown p50/p95/p99,
    query completion p99, the uplink ACK-loss rate and mark rate, and the
    stability regime when a stability block was stamped.
    """
    header = (f"{'cell':<44} {'slow_p50':>8} {'slow_p95':>8} {'slow_p99':>8} "
              f"{'qct_p99_ms':>10} {'ack_loss':>8} {'marks':>7} {'regime':>17}")
    lines = [header, "-" * len(header)]
    for label in sorted(results):
        cell = results[label]
        fx = (cell.manifest or {}).get("fixedk", {})
        slow = ((fx.get("rpc") or {}).get("responses") or {}).get("slowdown") or {}
        qct_p99 = ((fx.get("rpc") or {}).get("qct_s") or {}).get("p99")
        up = fx.get("uplinks") or {}
        regime = ((cell.manifest or {}).get("stability") or {}).get(
            "classification", "-")
        lines.append(
            f"{label:<44} {_fmt(slow.get('p50')):>8} {_fmt(slow.get('p95')):>8} "
            f"{_fmt(slow.get('p99')):>8} "
            f"{_fmt(None if qct_p99 is None else qct_p99 * 1e3):>10} "
            f"{_fmt(up.get('ack_loss_rate'), '.2%'):>8} "
            f"{_fmt(up.get('mark_rate'), '.2%'):>7} {regime:>17}"
        )
    return "\n".join(lines)


@dataclass
class FixedKRegimeMap:
    """A K-vs-load regime grid for one (variant, protection, fan-in) slice.

    ``cells`` maps ``(k_index, load_index)`` to the point's stability
    evidence (classification / confidence / rel_amplitude, plus the tail
    metrics) — the input of
    :func:`~repro.plotting.charts.grid_regime_map_to_svg` and
    :func:`render_regime_grid`.
    """

    variant: str
    protection: str
    fanout: int
    k_values: List[int] = field(default_factory=list)
    loads: List[float] = field(default_factory=list)
    cells: Dict[Tuple[int, int], Dict[str, object]] = field(default_factory=dict)

    @property
    def title(self) -> str:
        """Chart title for this slice."""
        return (f"Fixed-K regime map: {self.variant}/{self.protection} "
                f"N={self.fanout}")

    @property
    def slice_id(self) -> str:
        """Filesystem-safe slice identifier."""
        prot = self.protection.replace("+", "")
        return f"{self.variant}-{prot}-n{self.fanout}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dump (cells flattened into a point list)."""
        return {
            "schema": "repro.fixedk_regime_map/v1",
            "variant": self.variant,
            "protection": self.protection,
            "fanout": self.fanout,
            "k_values": list(self.k_values),
            "loads": list(self.loads),
            "points": [
                {"k": self.k_values[ki], "load": self.loads[li], **point}
                for (ki, li), point in sorted(self.cells.items())
            ],
        }


def build_regime_maps(results: Dict[str, CellResult]) -> List[FixedKRegimeMap]:
    """Slice fixedk results into K-vs-load regime maps.

    One map per (variant, protection, fan-in) combination present. Cells
    missing a ``manifest["stability"]`` block get one stamped via
    :class:`~repro.analysis.stability.StabilityAnalysis` (works on cache
    hits too — snapshots round-trip through the result cache exactly).
    Multi-seed grids keep the most severe regime per (K, load) point.
    """
    from repro.analysis.stability import StabilityAnalysis
    from repro.experiments.runner import apply_analyses

    severity = {"stable": 0, "chaotic-irregular": 1, "limit-cycle": 2}
    sa = StabilityAnalysis(keep_profiles=False)
    maps: Dict[Tuple[str, str, int], FixedKRegimeMap] = {}
    for _label, cell in sorted(results.items()):
        fx = (cell.manifest or {}).get("fixedk")
        if fx is None:
            continue
        if "stability" not in (cell.manifest or {}):
            apply_analyses(cell, [sa])
        stab = cell.manifest["stability"]
        key = (fx["variant"], fx["protection"], int(fx["fanout"]))
        m = maps.get(key)
        if m is None:
            m = maps[key] = FixedKRegimeMap(
                variant=key[0], protection=key[1], fanout=key[2])
        k, load = int(fx["k_packets"]), float(fx["load"])
        if k not in m.k_values:
            m.k_values.append(k)
        if load not in m.loads:
            m.loads.append(load)
        point = {
            "classification": stab["classification"],
            "confidence": stab["confidence"],
            "dominant_queue": stab["dominant_queue"],
            "rel_amplitude": max(
                [q["rel_amplitude"] for q in stab["queues"]] or [0.0]),
            "slowdown_p99": (((fx.get("rpc") or {}).get("responses") or {})
                             .get("slowdown") or {}).get("p99"),
            "ack_loss_rate": (fx.get("uplinks") or {}).get("ack_loss_rate"),
        }
        coord = (m.k_values.index(k), m.loads.index(load))
        prior = m.cells.get(coord)
        if (prior is None or severity[point["classification"]]
                >= severity[prior["classification"]]):
            m.cells[coord] = point
    out = []
    for key in sorted(maps):
        m = maps[key]
        # Re-index onto sorted axes so renderers can assume order.
        k_sorted = sorted(m.k_values)
        l_sorted = sorted(m.loads)
        remapped = {
            (k_sorted.index(m.k_values[ki]), l_sorted.index(m.loads[li])): pt
            for (ki, li), pt in m.cells.items()
        }
        m.k_values, m.loads, m.cells = k_sorted, l_sorted, remapped
        out.append(m)
    return out


#: One-letter regime codes for the ASCII grid.
_REGIME_CODES = {"stable": "S", "limit-cycle": "L", "chaotic-irregular": "C"}


def render_regime_grid(m: FixedKRegimeMap) -> str:
    """ASCII K-vs-load regime grid (S=stable, L=limit-cycle, C=irregular)."""
    lines = [m.title,
             "    S=stable  L=limit-cycle  C=chaotic-irregular  .=missing"]
    header = "load \\ K |" + "".join(f"{k:>7}" for k in m.k_values)
    lines.append(header)
    lines.append("-" * len(header))
    for li in range(len(m.loads) - 1, -1, -1):
        row = f"{m.loads[li]:>8.2f} |"
        for ki in range(len(m.k_values)):
            point = m.cells.get((ki, li))
            code = "." if point is None else _REGIME_CODES.get(
                str(point["classification"]), "?")
            row += f"{code:>7}"
        lines.append(row)
    return "\n".join(lines)
