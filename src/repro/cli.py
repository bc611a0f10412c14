"""Command-line interface: ``repro-hadoop-ecn`` / ``python -m repro``.

Subcommands regenerate each paper artifact:

* ``tables`` — Tables I & II
* ``fig1``   — the queue snapshot + ACK-drop asymmetry
* ``fig2|fig3|fig4`` — the normalized sweep figures (``--deep`` for (b))
* ``claims`` — check the paper's quantitative claims (C1-C6)
* ``report`` — run everything and write EXPERIMENTS.md
* ``sweep``  — run the full target-delay grid once (``--jobs N`` fans
  cells out over worker processes; ``--cache-dir``/``--resume`` persist
  and reuse per-cell results across interrupted runs)
* ``cell``   — run one configuration and dump its metrics
  (``--json [PATH]`` emits the machine-readable run manifest instead)
* ``profile`` — run one configuration with the event-loop profiler and
  report events/sec, heap high-water mark, and the sim/wall ratio
* ``trace`` — run one configuration and export a JSONL packet/queue/tcp
  trace (``--kinds drop,mark,deliver --out trace.jsonl``)
* ``bench`` — run the reproducible benchmark suite (micro primitives +
  pinned-seed canonical cells) and write ``BENCH_<stamp>.json``;
  ``--baseline PATH`` gates regressions (``--quick`` runs the
  fig2-smoke cell only); ``--compare A B`` renders a side-by-side table of two
  committed reports' normalized macro times without running anything
* ``smoke`` — run one determinism gate (``repro smoke --list`` names
  them: check, mix, stability, fixedk, flaws, fluid, farm, bench,
  sweep): pinned cells run plain, rerun and with the invariant checkers
  armed, fingerprints compared, one verdict line per named check, one
  ``<gate>_smoke_manifest.json``. Each verb's ``--smoke`` flag (and
  ``fluid``) is an alias for its gate
* ``check`` — arm the simulation invariant checkers (packet
  conservation, queue accounting, TCP sequence space, event engine) on
  representative figure cells, verify armed runs are bit-identical to
  unarmed ones, and fuzz randomized scenarios (failing scenarios are
  shrunk to a minimal repro dict)
* ``stability`` — the stability observatory: sweep one control-loop
  parameter (ECN threshold K via target delay, or the DCTCP gain) with
  steady-state incast probe cells, classify each point as stable /
  limit-cycle / chaotic-irregular, automatically refine the grid near
  regime boundaries, and write the stability map as SVG + JSON
* ``fixedk`` — the Fixed-K ECN study: single-threshold RED
  (``min_th == max_th == K``) on the leaf–spine fabric under
  partition-aggregate incast, swept over K × offered load × fan-in ×
  protection mode × transport; prints the FCT-slowdown-vs-K table and
  ASCII K-vs-load regime grids, and writes one regime-map SVG per
  (variant, protection, fan-in) slice
* ``serve`` — run the sweep-farm scheduler: a daemonized job-queue
  service (result cache + crash-safe journal + artifact store + N
  worker processes) answering submit/status/results/cancel/watch as
  JSON over a Unix socket; killing and restarting it resumes from the
  journal with at most the in-flight cells re-executed
* ``farm`` — sweep-farm client: submit the target-delay grids to a
  running ``serve`` (``--priority`` jumps the queue, preempting
  lower-priority cells at their next event-loop checkpoint), stream
  live progress, fetch results, or cancel jobs
* ``cache`` — inspect a content-addressed result cache: list entries
  with label/size/age, ``--stats``, and ``--prune-age HOURS`` /
  ``--keep-grid`` hygiene (corrupt entries and stale ``*.tmp`` files
  from killed writers are collected too)
* ``flaws`` — the Linux-DCTCP flaws pack: re-run one pinned tiny-buffer
  incast cell with each Misund endpoint flaw (delayed-ACK mark
  coalescing, ECT retransmits, α-freeze across RTO) re-enabled and print
  the flawed-vs-corrected comparison table

``--scale`` shrinks the Terasort dataset for quick looks (1.0 = the 256 MB
reference configuration; 0.25 runs in roughly a quarter of the time).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from repro.core.protection import ProtectionMode
from repro.core.registry import qdisc_entry, qdisc_names
from repro.experiments.config import (
    DEEP_BUFFER_PACKETS,
    SHALLOW_BUFFER_PACKETS,
    ExperimentConfig,
    QueueSetup,
)
from repro.experiments.figures import (
    fig1_queue_snapshot,
    fig2_runtime,
    fig3_throughput,
    fig4_latency,
    render_fig1,
    render_figure,
)
from repro.experiments.report import check_claims, render_claims, write_experiments_md
from repro.experiments.runner import run_cell
from repro.experiments.tables import render_table1, render_table2
from repro.tcp.cc import cc_names
from repro.tcp.endpoint import FLAW_PROFILES, TcpVariant
from repro.units import fmt_rate, fmt_time, us

__all__ = ["main"]


def _progress(done: int, total: int, label: str) -> None:
    # Kept for API stability; sweeps below use a ProgressReporter (adds ETA).
    print(f"  [{done:3d}/{total}] {label}", file=sys.stderr)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scale", type=float, default=1.0,
                   help="dataset scale factor (default 1.0 = 256 MB)")
    p.add_argument("--seed", type=int, default=42, help="experiment seed")
    p.add_argument("--quiet", action="store_true", help="suppress progress")


def _add_grid_options(p: argparse.ArgumentParser, limit: bool = True) -> None:
    """Options of the verbs that run a grid through the sweep runner."""
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes (default 1 = serial; parallel "
                        "results are bit-identical)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="persist per-cell results here, keyed by config "
                        "content")
    p.add_argument("--resume", action="store_true",
                   help="skip cells already present in --cache-dir "
                        "(resume an interrupted run)")
    if limit:
        p.add_argument("--limit", type=int, default=None, metavar="N",
                       help="run only the first N grid cells")


def _grid_usage_error(verb: str, args: argparse.Namespace) -> bool:
    """Report a bad ``_add_grid_options`` value; True when there was one."""
    if args.jobs < 1:
        problem = f"--jobs must be >= 1 (got {args.jobs})"
    elif args.resume and not args.cache_dir:
        problem = "--resume needs --cache-dir (nothing to resume from)"
    elif getattr(args, "limit", None) is not None and args.limit < 1:
        problem = f"--limit must be >= 1 (got {args.limit})"
    else:
        return False
    print(f"{verb}: {problem}", file=sys.stderr)
    return True


def _add_smoke_alias(p: argparse.ArgumentParser, gate: str) -> None:
    p.add_argument("--smoke", action="store_true",
                   help=f"run the {gate} smoke gate (`repro smoke {gate}`)")


def _checker_names(raw: str) -> str:
    """``check --checkers`` value: ``all`` names every checker. Resolved
    only when ``check`` is parsed, so other verbs never import the
    validation layer."""
    if raw != "all":
        return raw
    from repro.validate import CHECKER_NAMES

    return ",".join(CHECKER_NAMES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-hadoop-ecn",
        description="Reproduce 'High Throughput and Low Latency on Hadoop "
                    "Clusters using ECN' (CLUSTER 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="print Tables I and II")

    p1 = sub.add_parser("fig1", help="queue snapshot + ACK drop asymmetry")
    p1.add_argument("--svg", metavar="PATH",
                    help="also write the figure as an SVG file")
    _add_common(p1)

    for name, help_text in (
        ("fig2", "Hadoop runtime vs target delay"),
        ("fig3", "cluster throughput vs target delay"),
        ("fig4", "network latency vs target delay"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--deep", action="store_true",
                       help="deep-buffer variant (sub-figure b)")
        p.add_argument("--svg", metavar="PATH",
                       help="also write the figure as an SVG file")
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for the underlying sweep "
                            "(default 1 = serial; results are identical)")
        _add_common(p)

    pc = sub.add_parser("claims", help="check paper claims C1-C6")
    pc.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="worker processes for the underlying sweeps")
    _add_common(pc)

    pr = sub.add_parser("report", help="write EXPERIMENTS.md")
    pr.add_argument("--out", default="EXPERIMENTS.md", help="output path")
    pr.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="worker processes for the underlying sweeps")
    _add_common(pr)

    def _add_cell_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--queue",
                       choices=list(qdisc_names()),
                       default="red")
        p.add_argument("--protection",
                       choices=[m.value for m in ProtectionMode],
                       default="default")
        p.add_argument("--variant",
                       choices=[v.value for v in TcpVariant],
                       default=TcpVariant.ECN.value)
        p.add_argument("--cc", choices=list(cc_names()), default=None,
                       help="congestion-control override (registry key; "
                            "default: the variant's own CC)")
        p.add_argument("--flaw-profile", choices=sorted(FLAW_PROFILES),
                       default=None,
                       help="re-enable a Linux-DCTCP endpoint flaw "
                            "profile (default: corrected stack)")
        p.add_argument("--deep", action="store_true")
        p.add_argument("--target-delay-us", type=float, default=500.0)
        _add_common(p)

    psweep = sub.add_parser(
        "sweep",
        help="run the target-delay grid once, optionally in parallel "
             "against a resumable on-disk result cache")
    psweep.add_argument("--deep", action="store_true",
                        help="deep-buffer grid (default: shallow)")
    _add_grid_options(psweep)
    psweep.add_argument("--manifest", metavar="PATH",
                        help="write the merged sweep manifest as JSON")
    _add_common(psweep)

    pmix = sub.add_parser(
        "mix",
        help="mixed-cluster coexistence: Terasort shuffle + "
             "partition-aggregate RPC + background flows per queue scheme")
    _add_smoke_alias(pmix, "mix")
    _add_grid_options(pmix)
    pmix.add_argument("--manifest", metavar="PATH",
                      help="write the run manifest as JSON")
    _add_common(pmix)

    pcell = sub.add_parser("cell", help="run one configuration")
    pcell.add_argument("--json", nargs="?", const="-", metavar="PATH",
                       help="emit the run manifest as JSON to PATH "
                            "(default: stdout) instead of the text summary")
    _add_cell_options(pcell)

    pprof = sub.add_parser(
        "profile", help="profile the event loop over one configuration")
    pprof.add_argument("--json", nargs="?", const="-", metavar="PATH",
                       help="emit the profile report as JSON")
    _add_cell_options(pprof)

    ptrace = sub.add_parser(
        "trace", help="export a JSONL event trace of one configuration")
    ptrace.add_argument("--kinds", default="drop,mark,deliver",
                        help="comma-separated event kinds (default "
                             "drop,mark,deliver; also: enqueue,tx,link_loss,"
                             "queue.sample,tcp.cwnd,tcp.retx,tcp.rto,tcp.ece)")
    ptrace.add_argument("--out", default="trace.jsonl", metavar="PATH",
                        help="output file ('-' for stdout)")
    ptrace.add_argument("--queue-interval-us", type=float, default=None,
                        help="also sample queue composition on this period "
                             "(emits queue.sample records)")
    _add_cell_options(ptrace)

    pcheck = sub.add_parser(
        "check",
        help="arm the simulation invariant checkers on representative "
             "figure cells (plus a randomized scenario fuzz sweep) and "
             "verify armed runs stay bit-identical")
    _add_smoke_alias(pcheck, "check")
    pcheck.add_argument("--fuzz", type=int, default=None, metavar="N",
                        help="randomized scenarios to run (default: 50; "
                             "0 disables fuzzing)")
    pcheck.add_argument("--checkers", default="all", type=_checker_names,
                        help="comma-separated checker subset (default: "
                             "all)")
    pcheck.add_argument("--no-shrink", action="store_true",
                        help="report failing fuzz scenarios without "
                             "shrinking them")
    pcheck.add_argument("--json", nargs="?", const="-", metavar="PATH",
                        help="emit the full check report as JSON (with "
                             "--smoke: the gate manifest)")
    pcheck.add_argument("--scale", type=float, default=None,
                        help="dataset scale for the armed cells "
                             "(default 0.03125)")
    pcheck.add_argument("--seed", type=int, default=42, help="master seed")
    pcheck.add_argument("--quiet", action="store_true",
                        help="suppress progress")

    pstab = sub.add_parser(
        "stability",
        help="stability observatory: sweep one control-loop parameter "
             "with steady-state incast probe cells, classify each point "
             "(stable / limit-cycle / chaotic-irregular), refine the "
             "grid near regime boundaries, and write the stability map "
             "(SVG + JSON)")
    _add_smoke_alias(pstab, "stability")
    pstab.add_argument("--axis", choices=["target-delay", "dctcp-g"],
                       default="target-delay",
                       help="parameter to sweep (target-delay sets the "
                            "ECN threshold K; default target-delay)")
    pstab.add_argument("--values", default=None, metavar="V1,V2,...",
                       help="initial sweep grid — microseconds for "
                            "target-delay, raw gain for dctcp-g "
                            "(default: 50,100,200,500,1000 / "
                            "0.02,0.0625,0.25,0.5)")
    pstab.add_argument("--queue", choices=["red", "marking", "codel"],
                       default="marking",
                       help="probe queue discipline (default marking)")
    pstab.add_argument("--variant",
                       choices=[v.value for v in TcpVariant],
                       default=TcpVariant.DCTCP.value,
                       help="probe transport (default dctcp)")
    pstab.add_argument("--senders", type=int, default=4, metavar="N",
                       help="incast fan-in of each probe cell (default 4)")
    pstab.add_argument("--duration-s", type=float, default=1.0,
                       help="simulated seconds each probe holds the loop "
                            "in steady state (default 1.0)")
    pstab.add_argument("--rounds", type=int, default=3, metavar="N",
                       help="max automatic refinement passes near "
                            "detected regime boundaries (default 3)")
    _add_grid_options(pstab, limit=False)
    pstab.add_argument("--svg", metavar="PATH", default="stability_map.svg",
                       help="stability-map SVG path "
                            "(default stability_map.svg)")
    pstab.add_argument("--json", metavar="PATH", default="stability_map.json",
                       help="stability-map JSON path "
                            "(default stability_map.json)")
    pstab.add_argument("--manifest", metavar="PATH",
                       help="--smoke: write the gate manifest here")
    pstab.add_argument("--seed", type=int, default=42, help="probe seed")
    pstab.add_argument("--quiet", action="store_true",
                       help="suppress progress")

    pfk = sub.add_parser(
        "fixedk",
        help="Fixed-K ECN study on the leaf-spine fabric: sweep the "
             "single-threshold RED (min_th == max_th == K) over K x load "
             "x fan-in x protection mode x transport under "
             "partition-aggregate incast; report FCT-slowdown tails, "
             "uplink ACK loss, and K-vs-load regime maps")
    _add_smoke_alias(pfk, "fixedk")
    pfk.add_argument("--k-values", default=None, metavar="K1,K2,...",
                     help="marking thresholds in packets "
                          "(default 4,8,16,32,64)")
    pfk.add_argument("--loads", default=None, metavar="L1,L2,...",
                     help="offered loads as fractions of the fan-in "
                          "capacity (default 0.4,0.8)")
    pfk.add_argument("--fanouts", default=None, metavar="N1,N2,...",
                     help="incast fan-ins (default 4,8)")
    _add_grid_options(pfk)
    pfk.add_argument("--svg", metavar="PREFIX", default="fixedk_regime",
                     help="write one K-vs-load regime map SVG per "
                          "(variant, protection, fan-in) slice as "
                          "PREFIX_<slice>.svg (default fixedk_regime; "
                          "empty string disables)")
    pfk.add_argument("--manifest", metavar="PATH",
                     help="write the run manifest as JSON")
    pfk.add_argument("--seed", type=int, default=42, help="cell seed")
    pfk.add_argument("--quiet", action="store_true",
                     help="suppress progress")

    pflaws = sub.add_parser(
        "flaws",
        help="Linux-DCTCP flaws pack: flawed vs corrected endpoint "
             "fidelity on one pinned tiny-buffer incast cell")
    _add_smoke_alias(pflaws, "flaws")
    pflaws.add_argument("--duration-s", type=float, default=1.0,
                        metavar="S",
                        help="simulated horizon per profile (default 1.0)")
    pflaws.add_argument("--json", nargs="?", const="-", metavar="PATH",
                        help="emit the comparison rows as JSON to PATH "
                             "(default: stdout)")
    pflaws.add_argument("--manifest", metavar="PATH",
                        help="--smoke: write the gate manifest here")
    pflaws.add_argument("--seed", type=int, default=42, help="cell seed")
    pflaws.add_argument("--quiet", action="store_true",
                        help="suppress progress")

    pbench = sub.add_parser(
        "bench",
        help="run the reproducible benchmark suite and write BENCH_<stamp>.json")
    pbench.add_argument("--quick", action="store_true",
                        help="fig2-smoke macro cell only (what the "
                             "bench smoke gate runs)")
    pbench.add_argument("--repeats", type=int, default=None, metavar="N",
                        help="timing samples per workload "
                             "(default: 3 with --quick, else 5)")
    pbench.add_argument("--out", metavar="PATH", default=None,
                        help="report path (default BENCH_<stamp>.json in "
                             "the current directory; '-' prints the JSON "
                             "to stdout without writing a file)")
    pbench.add_argument("--baseline", metavar="PATH",
                        help="compare against this committed report "
                             "(e.g. benchmarks/BENCH_baseline.json) and "
                             "fail on regression")
    pbench.add_argument("--tolerance", type=float, default=0.25,
                        metavar="FRAC",
                        help="allowed normalized-time regression vs the "
                             "baseline (default 0.25 = 25%%)")
    pbench.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two existing BENCH_*.json reports "
                             "side by side (A = reference, B = candidate) "
                             "instead of running the suite; exit 1 when B "
                             "regresses past --tolerance on any shared "
                             "macro cell")

    pserve = sub.add_parser(
        "serve",
        help="run the sweep-farm scheduler: a daemonized job-queue "
             "service that owns a result cache, a crash-safe journal and "
             "an artifact store, drives N worker processes, and answers "
             "submit/status/results/cancel/watch as JSON over a Unix "
             "socket (restarting after a kill resumes from the journal)")
    pserve.add_argument("--farm-dir", required=True, metavar="DIR",
                        help="service state directory (cache/, artifacts/, "
                             "journal.jsonl, farm.sock); an existing "
                             "directory is resumed, not wiped")
    pserve.add_argument("--workers", type=int, default=2, metavar="N",
                        help="worker processes (default 2)")
    pserve.add_argument("--socket", metavar="PATH", default=None,
                        help="Unix-socket override (default "
                             "<farm-dir>/farm.sock; AF_UNIX paths are "
                             "length-limited — use /tmp for deep trees)")
    pserve.add_argument("--checkpoint-s", type=float, default=0.25,
                        metavar="S",
                        help="simulated seconds between preemption "
                             "checkpoints in workers (default 0.25)")

    pfarm = sub.add_parser(
        "farm",
        help="sweep-farm client: submit grids to, and inspect, a running "
             "`repro serve` instance")
    pfarm.add_argument("--socket", metavar="PATH",
                       help="the farm's Unix socket "
                            "(<farm-dir>/farm.sock)")
    _add_smoke_alias(pfarm, "farm")
    pfarm.add_argument("--ping", action="store_true",
                       help="liveness check")
    pfarm.add_argument("--stats", action="store_true",
                       help="scheduler counters: jobs, units, workers, "
                            "preemptions, cache")
    pfarm.add_argument("--submit", choices=["shallow", "deep"],
                       help="submit the target-delay grid (shallow or "
                            "deep buffers) as one job")
    pfarm.add_argument("--priority", type=int, default=0, metavar="P",
                       help="job priority for --submit (higher runs "
                            "first; may preempt lower-priority cells at "
                            "their next checkpoint; default 0)")
    pfarm.add_argument("--limit", type=int, default=None, metavar="N",
                       help="submit only the first N grid cells")
    pfarm.add_argument("--wait", action="store_true",
                       help="after --submit, stream progress until the "
                            "job finishes")
    pfarm.add_argument("--status", nargs="?", const="", metavar="JOB",
                       help="one job's per-label status, or all jobs "
                            "when no id is given")
    pfarm.add_argument("--results", metavar="JOB",
                       help="fetch a job's results (cache-entry "
                            "documents) as JSON")
    pfarm.add_argument("--out", metavar="PATH", default="-",
                       help="where --results writes ('-' = stdout)")
    pfarm.add_argument("--watch", metavar="JOB",
                       help="stream a job's live progress events")
    pfarm.add_argument("--cancel", metavar="JOB",
                       help="cancel a job (running cells are preempted)")
    pfarm.add_argument("--shutdown", action="store_true",
                       help="drain in-flight cells and stop the farm")
    _add_common(pfarm)

    pcache = sub.add_parser(
        "cache",
        help="inspect and prune a content-addressed result cache "
             "(the --cache-dir of sweep/mix/fixedk/stability, or a "
             "farm's <farm-dir>/cache)")
    pcache.add_argument("--cache-dir", required=True, metavar="DIR",
                        help="the cache directory to inspect")
    pcache.add_argument("--stats", action="store_true",
                        help="print summary statistics as JSON instead "
                             "of the entry listing")
    pcache.add_argument("--prune-age", type=float, default=None,
                        metavar="HOURS",
                        help="remove entries older than HOURS (also "
                             "collects corrupt entries and stale *.tmp "
                             "files)")
    pcache.add_argument("--keep-grid", choices=["shallow", "deep"],
                        default=None,
                        help="remove entries NOT in the named "
                             "target-delay grid (grid-membership prune; "
                             "uses --scale/--seed to rebuild the grid's "
                             "keys)")
    pcache.add_argument("--dry-run", action="store_true",
                        help="report what would be pruned without "
                             "deleting anything")
    _add_common(pcache)

    pfluid = sub.add_parser(
        "fluid", help="run the fluid smoke gate (same as `repro smoke "
                      "fluid`): the hybrid fidelity tier against packet "
                      "mode")
    pfluid.add_argument("--smoke", action="store_true",
                        help=argparse.SUPPRESS)
    pfluid.add_argument("--manifest", metavar="PATH",
                        help="write the gate manifest here")
    pfluid.add_argument("--quiet", action="store_true",
                        help="suppress progress")

    psmoke = sub.add_parser(
        "smoke",
        help="run one determinism gate: its pinned cells plain, rerun and "
             "with the invariant checkers armed, fingerprints compared, "
             "one verdict line per named check")
    psmoke.add_argument("gate", nargs="?",
                        help="the gate to run (see --list)")
    psmoke.add_argument("--list", action="store_true",
                        help="list the gates and what each pins")
    psmoke.add_argument("--manifest", metavar="PATH",
                        help="write the gate manifest here (default "
                             "<gate>_smoke_manifest.json; '-' = stdout)")
    psmoke.add_argument("--seed", type=int, default=42, help="cell seed")
    psmoke.add_argument("--quiet", action="store_true",
                        help="suppress progress")

    return parser


def _cell_config(args: argparse.Namespace) -> ExperimentConfig:
    """Build the ExperimentConfig shared by cell/profile/trace."""
    needs_td = qdisc_entry(args.queue).needs_target_delay
    queue = QueueSetup(
        kind=args.queue,
        buffer_packets=DEEP_BUFFER_PACKETS if args.deep else SHALLOW_BUFFER_PACKETS,
        target_delay_s=us(args.target_delay_us) if needs_td else None,
        protection=ProtectionMode(args.protection),
    )
    return ExperimentConfig(
        queue=queue,
        variant=TcpVariant(args.variant),
        seed=args.seed,
        cc=args.cc,
        flaw_profile=args.flaw_profile,
    ).scaled(args.scale)


def _emit_json(payload, dest: str) -> int:
    """Write JSON to a path or stdout (dest '-'); returns an exit code."""
    text = json.dumps(payload, indent=2)
    if dest == "-":
        print(text)
        return 0
    try:
        with open(dest, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        print(f"error: cannot write {dest}: {exc.strerror}", file=sys.stderr)
        return 1
    print(f"wrote {dest}", file=sys.stderr)
    return 0


def _run_grid(verb: str, todo, args: argparse.Namespace):
    """Run ``todo`` (cut to ``--limit``) through the sweep runner with the
    grid options; returns ``(report, cache)``, or None after reporting an
    unusable ``--cache-dir``."""
    from repro.errors import ExperimentError
    from repro.experiments.cache import ResultCache
    from repro.experiments.parallel import run_cells
    from repro.telemetry.profiler import ProgressReporter

    if args.limit is not None:
        todo = todo[: args.limit]
    try:
        cache = ResultCache(args.cache_dir) if args.cache_dir else None
    except ExperimentError as exc:
        print(f"{verb}: {exc}", file=sys.stderr)
        return None
    progress = None if args.quiet else ProgressReporter()
    report = run_cells(todo, jobs=args.jobs, cache=cache,
                       resume=args.resume, progress=progress)
    return report, cache


def _print_grid_summary(report, cache, args: argparse.Namespace) -> None:
    print(f"cells    : {len(report.results)} total — "
          f"{len(report.executed)} executed, {len(report.cached)} cached")
    print(f"wall time: {report.wall_s:.1f}s")
    if cache is not None:
        print(f"cache    : {args.cache_dir} ({len(cache)} entries)")


def _grid_manifest(report, **fields) -> dict:
    from repro.telemetry.manifest import build_sweep_manifest

    return build_sweep_manifest(
        {label: res.manifest for label, res in report.results.items()},
        jobs=report.jobs, executed=report.executed, cached=report.cached,
        wall_s=report.wall_s, **fields)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.grids import grid_cells

    if _grid_usage_error("sweep", args):
        return 2
    ran = _run_grid("sweep", grid_cells(args.deep, args.scale, args.seed),
                    args)
    if ran is None:
        return 2
    report, cache = ran
    print(f"sweep    : {'deep' if args.deep else 'shallow'} buffers, "
          f"scale {args.scale}, seed {args.seed}")
    print(f"jobs     : {report.jobs}")
    _print_grid_summary(report, cache, args)
    if args.manifest:
        return _emit_json(_grid_manifest(report, deep=args.deep,
                                         scale=args.scale, seed=args.seed),
                          args.manifest)
    return 0


def _cmd_mix(args: argparse.Namespace) -> int:
    from repro.experiments.mix import mix_grid, render_mix_table

    if _grid_usage_error("mix", args):
        return 2
    ran = _run_grid("mix", mix_grid(args.scale, args.seed), args)
    if ran is None:
        return 2
    report, cache = ran
    print(render_mix_table(report.results))
    print()
    _print_grid_summary(report, cache, args)
    if args.manifest:
        return _emit_json(_grid_manifest(report, kind_detail="mix",
                                         scale=args.scale, seed=args.seed),
                          args.manifest)
    return 0


#: Default bifurcation grids per axis (target-delay values in µs).
_STABILITY_GRIDS = {
    "target-delay": (50.0, 100.0, 200.0, 500.0, 1000.0),
    "dctcp-g": (0.02, 0.0625, 0.25, 0.5),
}


def _cmd_stability(args: argparse.Namespace) -> int:
    from repro.errors import ExperimentError
    from repro.experiments.bifurcation import (
        render_regime_table,
        run_bifurcation,
    )
    from repro.experiments.cache import ResultCache
    from repro.experiments.probe import StabilityProbeConfig
    from repro.telemetry.profiler import ProgressReporter

    if _grid_usage_error("stability", args):
        return 2
    if args.rounds < 0:
        print(f"stability: --rounds must be >= 0 (got {args.rounds})",
              file=sys.stderr)
        return 2

    raw = args.values or ",".join(str(v)
                                  for v in _STABILITY_GRIDS[args.axis])
    try:
        values = [float(v) for v in raw.split(",") if v.strip()]
    except ValueError:
        print(f"stability: --values must be comma-separated numbers "
              f"(got {raw!r})", file=sys.stderr)
        return 2
    if args.axis == "target-delay":
        values = [us(v) for v in values]

    base = StabilityProbeConfig(
        queue=QueueSetup(kind=args.queue, target_delay_s=us(200.0)),
        variant=TcpVariant(args.variant),
        n_senders=args.senders,
        duration_s=args.duration_s,
        seed=args.seed,
    )
    try:
        cache = ResultCache(args.cache_dir) if args.cache_dir else None
        progress = None if args.quiet else ProgressReporter()
        m = run_bifurcation(base, args.axis, values, rounds=args.rounds,
                            jobs=args.jobs, cache=cache,
                            resume=args.resume, progress=progress)
    except ExperimentError as exc:
        print(f"stability: {exc}", file=sys.stderr)
        return 2

    print(render_regime_table(m))
    rc = _emit_json(m.to_dict(), args.json)
    if rc != 0:
        return rc
    if args.svg:
        from repro.plotting import regime_map_to_svg

        try:
            with open(args.svg, "w") as fh:
                fh.write(regime_map_to_svg(m))
        except OSError as exc:
            print(f"error: cannot write {args.svg}: {exc.strerror}",
                  file=sys.stderr)
            return 1
        print(f"wrote {args.svg}", file=sys.stderr)
    return 0


def _cmd_flaws(args: argparse.Namespace) -> int:
    from repro.experiments.flaws import render_flaws_table, run_flaws

    t0 = time.time()
    cells, rows = run_flaws(seed=args.seed, duration_s=args.duration_s)
    print(render_flaws_table(rows))
    if not args.quiet:
        print(f"(5 profiles, wall time {time.time() - t0:.1f}s)",
              file=sys.stderr)
    if args.json:
        return _emit_json({"schema": "repro.flaws/v1", "seed": args.seed,
                           "duration_s": args.duration_s, "rows": rows},
                          args.json)
    return 0


def _parse_axis(name: str, raw: str, cast):
    try:
        return tuple(cast(v) for v in raw.split(",") if v.strip())
    except ValueError:
        print(f"fixedk: --{name} must be comma-separated numbers "
              f"(got {raw!r})", file=sys.stderr)
        return None


def _cmd_fixedk(args: argparse.Namespace) -> int:
    from repro.errors import ConfigError, ExperimentError
    from repro.experiments.fixedk import (
        DEFAULT_FANOUTS,
        DEFAULT_K_VALUES,
        DEFAULT_LOADS,
        FixedKConfig,
        build_regime_maps,
        fixedk_grid,
        render_fixedk_table,
        render_regime_grid,
    )

    if _grid_usage_error("fixedk", args):
        return 2

    k_values = (_parse_axis("k-values", args.k_values, int)
                if args.k_values else DEFAULT_K_VALUES)
    loads = (_parse_axis("loads", args.loads, float)
             if args.loads else DEFAULT_LOADS)
    fanouts = (_parse_axis("fanouts", args.fanouts, int)
               if args.fanouts else DEFAULT_FANOUTS)
    if k_values is None or loads is None or fanouts is None:
        return 2

    base = FixedKConfig(seed=args.seed)
    try:
        todo = fixedk_grid(k_values=k_values, loads=loads, fanouts=fanouts,
                           seeds=(args.seed,), base=base)
        for _label, cfg in todo:
            cfg.validate()
    except (ExperimentError, ConfigError) as exc:
        print(f"fixedk: {exc}", file=sys.stderr)
        return 2
    ran = _run_grid("fixedk", todo, args)
    if ran is None:
        return 2
    report, cache = ran

    # Regime maps stamp manifest["stability"] into every cell (cache hits
    # included), so the table below can show the regime column.
    maps = build_regime_maps(report.results)
    print(render_fixedk_table(report.results))
    for m in maps:
        print()
        print(render_regime_grid(m))
    print()
    _print_grid_summary(report, cache, args)
    if args.svg:
        from repro.plotting import grid_regime_map_to_svg

        for m in maps:
            path = f"{args.svg}_{m.slice_id}.svg"
            try:
                with open(path, "w") as fh:
                    fh.write(grid_regime_map_to_svg(m))
            except OSError as exc:
                print(f"error: cannot write {path}: {exc.strerror}",
                      file=sys.stderr)
                return 1
            print(f"wrote {path}", file=sys.stderr)
    if args.manifest:
        sweep = _grid_manifest(report, kind_detail="fixedk", seed=args.seed)
        sweep["regime_maps"] = [m.to_dict() for m in maps]
        return _emit_json(sweep, args.manifest)
    return 0


def _cmd_cell(args: argparse.Namespace) -> int:
    cfg = _cell_config(args)
    t0 = time.time()
    cell = run_cell(cfg)
    if args.json is not None:
        return _emit_json(cell.manifest, args.json)
    m = cell.metrics
    q = m.queue
    print(f"cell     : {cfg.label()}")
    print(f"runtime  : {fmt_time(m.runtime)}")
    print(f"tput/node: {fmt_rate(m.throughput_per_node_bps)}")
    print(f"latency  : mean {fmt_time(m.mean_latency)}  p99 {fmt_time(m.p99_latency)}")
    print(f"queueing : early drops {q.drops_early}  tail drops {q.drops_tail}  "
          f"marks {q.marks}  protected {q.protected}")
    print(f"ack drops: {q.ack_drops}/{q.ack_arrivals} ({q.ack_drop_rate():.2%})")
    print(f"tcp      : retx {m.retransmits}  rtos {m.rtos}  syn retries {m.syn_retries}")
    print(f"(wall time {time.time() - t0:.1f}s)")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.telemetry import Telemetry

    cfg = _cell_config(args)
    tel = Telemetry(profile=True)
    cell = run_cell(cfg, telemetry=tel)
    if args.json is not None:
        return _emit_json(cell.manifest["profile"], args.json)
    print(f"cell      : {cfg.label()}")
    print(f"sim time  : {fmt_time(cell.metrics.runtime)}")
    print(tel.profiler.render())
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf.bench import (
        compare_to_baseline,
        render_report,
        run_bench,
        write_bench,
    )

    if args.repeats is not None and args.repeats < 1:
        print(f"bench: --repeats must be >= 1 (got {args.repeats})",
              file=sys.stderr)
        return 2
    if not (0.0 <= args.tolerance):
        print(f"bench: --tolerance must be >= 0 (got {args.tolerance})",
              file=sys.stderr)
        return 2

    if args.compare:
        # Pure report-vs-report mode: nothing is executed, so it shares
        # the baseline failure classes — 3 for unreadable artifacts, 1
        # for a genuine regression.
        from repro.perf.bench import render_compare

        reports = []
        for path in args.compare:
            try:
                with open(path) as fh:
                    reports.append(json.load(fh))
            except OSError as exc:
                print(f"bench: cannot read {path}: {exc.strerror or exc}",
                      file=sys.stderr)
                return 3
            except ValueError as exc:
                print(f"bench: {path} is not valid JSON: {exc}",
                      file=sys.stderr)
                return 3
        ok, lines = render_compare(reports[0], reports[1],
                                   tolerance=args.tolerance)
        print(f"compare: A={args.compare[0]}  B={args.compare[1]}")
        for line in lines:
            print(f"  {line}")
        return 0 if ok else 1

    baseline = None
    if args.baseline:
        # A missing/corrupt baseline is its own failure class: exit 3, so
        # CI and scripts can tell "the gate itself is broken" (fix the
        # baseline artifact) apart from usage errors (2) and genuine
        # regressions (1).
        try:
            with open(args.baseline) as fh:
                baseline = json.load(fh)
        except OSError as exc:
            print(f"bench: cannot read baseline {args.baseline}: "
                  f"{exc.strerror or exc} — pass an existing report "
                  "(e.g. benchmarks/BENCH_baseline.json)", file=sys.stderr)
            return 3
        except ValueError as exc:
            print(f"bench: baseline {args.baseline} is not valid JSON: "
                  f"{exc} — regenerate it with `bench --out`",
                  file=sys.stderr)
            return 3

    report = run_bench(quick=args.quick, repeats=args.repeats)

    rc = 0
    if args.out == "-":
        print(json.dumps(report, indent=2))
    else:
        print(render_report(report))
        path = write_bench(report, args.out)
        print(f"wrote {path}", file=sys.stderr)

    broken = [name for name, row in report["macro"].items()
              if not row["deterministic"]]
    if broken:
        print(f"bench: NON-DETERMINISTIC macro cell(s): {', '.join(broken)} "
              "— repeated runs must be bit-identical", file=sys.stderr)
        rc = 1

    if baseline is not None:
        ok, lines = compare_to_baseline(report, baseline,
                                        tolerance=args.tolerance)
        print(f"baseline     : {args.baseline}", file=sys.stderr)
        for line in lines:
            print(f"  {line}", file=sys.stderr)
        if not ok:
            rc = 1
    return rc


def _smoke_gate(args: argparse.Namespace) -> Optional[str]:
    """The smoke gate a parsed command line names: ``smoke <gate>``, or a
    verb's ``--smoke`` alias (``fluid`` always is one); None otherwise."""
    if args.command == "smoke":
        return args.gate
    if args.command == "fluid" or getattr(args, "smoke", False):
        return args.command
    return None


def _cmd_smoke(gate: Optional[str], args: argparse.Namespace) -> int:
    from repro.validate.smoke import GATES, run_gate

    if args.command == "smoke" and args.list:
        for g in GATES.values():
            print(f"{g.name:<10} {g.summary}")
        return 0
    if gate not in GATES:
        what = f"unknown gate {gate!r}" if gate else "name a gate"
        print(f"smoke: {what} (gates: {', '.join(GATES)})", file=sys.stderr)
        return 2
    payload = run_gate(gate, seed=getattr(args, "seed", 42), quiet=args.quiet)
    dest = (args.json if args.command == "check"
            else getattr(args, "manifest", None))
    rc = _emit_json(payload, dest or f"{gate}_smoke_manifest.json")
    return rc or (0 if payload["ok"] else 1)


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.errors import ValidationError
    from repro.validate import CHECKER_NAMES, fuzz
    from repro.validate.smoke import SMOKE_SCALE, check_cell, smoke_cells

    names = [c.strip() for c in args.checkers.split(",") if c.strip()]
    unknown = sorted(set(names) - set(CHECKER_NAMES))
    if not names or unknown:
        what = f"unknown checker(s): {', '.join(unknown)}" if unknown \
            else "--checkers must name at least one checker"
        print(f"check: {what} (available: {', '.join(CHECKER_NAMES)})",
              file=sys.stderr)
        return 2
    if args.fuzz is not None and args.fuzz < 0:
        print(f"check: --fuzz must be >= 0 (got {args.fuzz})", file=sys.stderr)
        return 2
    if args.scale is not None and args.scale <= 0:
        print(f"check: --scale must be positive (got {args.scale})",
              file=sys.stderr)
        return 2

    scale = args.scale if args.scale is not None else SMOKE_SCALE
    n_fuzz = args.fuzz if args.fuzz is not None else 50
    cells = smoke_cells(scale, args.seed)

    rc = 0
    cell_reports = []
    for name, config in cells:
        result = check_cell(config, checker_names=names)
        cell_reports.append(result)
        violations = result["validation"]["violation_count"]
        verdict = "ok" if result["ok"] else (
            "FINGERPRINT MISMATCH (armed run diverged)"
            if not result["identical"] else f"{violations} VIOLATION(S)")
        if not args.quiet or not result["ok"]:
            print(f"cell {name:<18}: {verdict}", file=sys.stderr)
        if not result["ok"]:
            for v in result["validation"]["violations"][:10]:
                print(f"    t={v['time']:.6f} [{v['checker']}] "
                      f"{v['where']}: {v['message']}", file=sys.stderr)
            rc = 1

    fuzz_report = None
    if n_fuzz > 0:
        def progress(i, n, result):
            if not args.quiet and (i % 10 == 0 or not result.ok):
                status = "ok" if result.ok else "VIOLATION"
                print(f"fuzz {i:3d}/{n}: {status}", file=sys.stderr)

        try:
            fuzz_report = fuzz(n=n_fuzz, seed=args.seed,
                               shrink_failures=not args.no_shrink,
                               progress=progress)
        except ValidationError as exc:
            print(f"check: {exc}", file=sys.stderr)
            return 2
        if not fuzz_report.ok:
            rc = 1
            for failure in fuzz_report.failures:
                repro_dict = failure.get("shrunk", failure["scenario"])
                print(f"fuzz FAILURE — minimal repro: {repro_dict}",
                      file=sys.stderr)
                for v in failure["violations"][:5]:
                    print(f"    {v}", file=sys.stderr)

    summary = {
        "ok": rc == 0,
        "checkers": names,
        "scale": scale,
        "seed": args.seed,
        "cells": cell_reports,
        "fuzz": fuzz_report.as_dict() if fuzz_report is not None else None,
    }
    if args.json is not None:
        json_rc = _emit_json(summary, args.json)
        return rc or json_rc
    n_cells_ok = sum(1 for r in cell_reports if r["ok"])
    print(f"check: {n_cells_ok}/{len(cell_reports)} cells clean"
          + (f", fuzz {fuzz_report.scenarios_run} scenarios "
             f"({len(fuzz_report.failures)} failing)"
             if fuzz_report is not None else "")
          + f" — {'OK' if rc == 0 else 'FAILED'}")
    return rc


#: Kinds something in the stack actually emits (for `trace` typo warnings).
_KNOWN_TRACE_KINDS = frozenset(
    ("enqueue", "drop", "mark", "tx", "link_loss", "deliver", "queue.sample",
     "tcp.cwnd", "tcp.retx", "tcp.rto", "tcp.ece")
)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry import Telemetry, TraceJsonlWriter

    cfg = _cell_config(args)
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    if not kinds:
        print("trace: --kinds must name at least one event kind",
              file=sys.stderr)
        return 2
    unknown = sorted(set(kinds) - _KNOWN_TRACE_KINDS)
    if unknown:
        print(f"trace: warning: nothing emits kind(s) {', '.join(unknown)} "
              f"(known: {', '.join(sorted(_KNOWN_TRACE_KINDS))})",
              file=sys.stderr)
    interval = (us(args.queue_interval_us)
                if args.queue_interval_us is not None else None)
    tel = Telemetry(queue_interval_s=interval)
    if args.out == "-":
        writer = TraceJsonlWriter(tel.tracer, out=sys.stdout, kinds=kinds)
        run_cell(cfg, telemetry=tel)
    else:
        try:
            fh = open(args.out, "w")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}",
                  file=sys.stderr)
            return 1
        with fh:
            writer = TraceJsonlWriter(tel.tracer, out=fh, kinds=kinds)
            run_cell(cfg, telemetry=tel)
        print(f"wrote {args.out} ({writer.rows_written} records, kinds: "
              f"{','.join(kinds)})", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.errors import FarmError
    from repro.farm.scheduler import FarmScheduler

    try:
        sched = FarmScheduler(args.farm_dir, workers=args.workers,
                              socket_path=args.socket,
                              checkpoint_s=args.checkpoint_s)
    except FarmError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda _s, _f: sched.stop())
    resumed = (f", resumed {sched.resumed_jobs} job(s) from the journal"
               if sched.resumed_jobs else "")
    print(f"serve: farm on {sched.socket_path} "
          f"({args.workers} worker(s){resumed})", file=sys.stderr)
    try:
        sched.serve_forever()
    except FarmError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 1
    print("serve: stopped", file=sys.stderr)
    return 0


def _cmd_farm(args: argparse.Namespace) -> int:
    from repro.errors import FarmError
    from repro.farm.client import FarmClient
    from repro.telemetry.profiler import ProgressReporter

    if not args.socket:
        print("farm: --socket is required (the farm's <farm-dir>/farm.sock)",
              file=sys.stderr)
        return 2
    client = FarmClient(args.socket)
    try:
        if args.ping:
            print(json.dumps(client.ping(), indent=2))
            return 0
        if args.stats:
            print(json.dumps(client.stats(), indent=2))
            return 0
        if args.submit:
            from repro.experiments.grids import grid_cells

            cells = grid_cells(args.submit == "deep", args.scale, args.seed)
            if args.limit is not None:
                cells = cells[: args.limit]
            resp = client.submit(cells, priority=args.priority)
            c = resp["cells"]
            print(f"farm: submitted {resp['id']} — {c['total']} cells "
                  f"({c['cached']} cached, {resp['deduped_pending']} "
                  f"deduped) at priority {resp['priority']}")
            if args.wait and resp["state"] == "running":
                reporter = None if args.quiet else ProgressReporter()
                final = None
                for ev in client.watch(resp["id"], timeout=None):
                    if ev.get("ev") == "progress" and reporter is not None:
                        reporter(ev["done"], ev["total"], ev["label"])
                    elif ev.get("ev") == "job_done":
                        final = ev
                print(f"farm: {resp['id']} "
                      f"{final['state'] if final else 'lost'}")
                return 0 if final and final["state"] == "done" else 1
            return 0
        if args.status is not None:
            payload = client.status(args.status or None)
            print(json.dumps(payload, indent=2))
            return 0
        if args.results:
            return _emit_json(client.results(args.results), args.out)
        if args.watch:
            final_state = "lost"
            for ev in client.watch(args.watch, timeout=None):
                print(json.dumps(ev))
                if ev.get("ev") == "job_done":
                    final_state = ev.get("state", "lost")
            return 0 if final_state == "done" else 1
        if args.cancel:
            resp = client.cancel(args.cancel)
            print(f"farm: {resp['id']} -> {resp['state']}")
            return 0
        if args.shutdown:
            resp = client.shutdown()
            print(f"farm: shutting down "
                  f"({resp.get('draining', 0)} cell(s) draining)")
            return 0
    except FarmError as exc:
        print(f"farm: {exc}", file=sys.stderr)
        return 1
    print("farm: nothing to do — pass one of --ping/--stats/--submit/"
          "--status/--results/--watch/--cancel/--shutdown/--smoke",
          file=sys.stderr)
    return 2


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.errors import ExperimentError
    from repro.experiments.cache import ResultCache, config_cache_key

    try:
        cache = ResultCache(args.cache_dir)
    except ExperimentError as exc:
        print(f"cache: {exc}", file=sys.stderr)
        return 2
    if args.prune_age is not None and args.prune_age < 0:
        print(f"cache: --prune-age must be >= 0 (got {args.prune_age})",
              file=sys.stderr)
        return 2

    if args.prune_age is not None or args.keep_grid is not None:
        keep_keys = None
        if args.keep_grid is not None:
            from repro.experiments.grids import grid_cells

            keep_keys = {config_cache_key(cfg) for _label, cfg in
                         grid_cells(args.keep_grid == "deep",
                                    args.scale, args.seed)}
        # Count before pruning: after a dry run the doomed entries are
        # still on disk, so entries() would double-count them.
        total = len(cache.entries())
        pruned = cache.prune(
            max_age_s=(args.prune_age * 3600.0
                       if args.prune_age is not None else None),
            keep_keys=keep_keys, dry_run=args.dry_run)
        verb = "would prune" if args.dry_run else "pruned"
        print(f"cache: {verb} {len(pruned)} of {total} entries"
              + (f" (keeping the {args.keep_grid} grid)"
                 if args.keep_grid else ""))
        for key in pruned:
            print(f"  {key[:16]}…")
        return 0

    if args.stats:
        print(json.dumps(cache.stats(), indent=2))
        return 0

    entries = cache.entries()
    if not entries:
        print(f"cache: {args.cache_dir} is empty")
        return 0
    print(f"{'key':<18} {'size':>8} {'age':>8}  label")
    for e in sorted(entries, key=lambda e: e.age_s):
        age = (f"{e.age_s:.0f}s" if e.age_s < 3600
               else f"{e.age_s / 3600:.1f}h")
        label = e.label if e.ok else "(corrupt entry)"
        print(f"{e.key[:16]}…  {e.bytes:>7}B {age:>8}  {label}")
    stale = cache.stale_tmp_files()
    if stale:
        print(f"({len(stale)} stale *.tmp file(s) — collect with --prune-age)")
    return 0


def main(argv: Optional[list] = None) -> int:
    """CLI entry point."""
    # Die quietly when piped into `head` etc. instead of tracebacking.
    try:
        import signal

        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    except (ImportError, ValueError, AttributeError):  # pragma: no cover
        pass  # non-POSIX platform or non-main thread
    args = build_parser().parse_args(argv)
    progress = None if getattr(args, "quiet", True) else _progress
    gate = _smoke_gate(args)
    if gate is not None or args.command == "smoke":
        return _cmd_smoke(gate, args)

    if args.command == "tables":
        print(render_table1())
        print()
        print(render_table2())
        return 0
    if args.command == "fig1":
        data = fig1_queue_snapshot(args.scale, args.seed)
        print(render_fig1(data))
        if args.svg:
            from repro.plotting import queue_snapshot_to_svg

            with open(args.svg, "w") as fh:
                fh.write(queue_snapshot_to_svg(
                    data.snapshot, data.mark_threshold_packets))
            print(f"wrote {args.svg}", file=sys.stderr)
        return 0
    if args.command in ("fig2", "fig3", "fig4"):
        fn = {"fig2": fig2_runtime, "fig3": fig3_throughput,
              "fig4": fig4_latency}[args.command]
        if args.jobs < 1:
            print(f"{args.command}: --jobs must be >= 1 (got {args.jobs})",
                  file=sys.stderr)
            return 2
        fig = fn(args.deep, args.scale, args.seed, progress=progress,
                 jobs=args.jobs)
        print(render_figure(fig))
        if args.svg:
            from repro.plotting import figure_to_svg

            with open(args.svg, "w") as fh:
                fh.write(figure_to_svg(fig))
            print(f"wrote {args.svg}", file=sys.stderr)
        return 0
    if args.command == "claims":
        print(render_claims(check_claims(args.scale, args.seed,
                                         progress=progress,
                                         jobs=args.jobs)))
        return 0
    if args.command == "report":
        write_experiments_md(args.out, args.scale, args.seed,
                             progress=progress, jobs=args.jobs)
        print(f"wrote {args.out}")
        return 0
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "mix":
        return _cmd_mix(args)
    if args.command == "stability":
        return _cmd_stability(args)
    if args.command == "flaws":
        return _cmd_flaws(args)
    if args.command == "fixedk":
        return _cmd_fixedk(args)
    if args.command == "cell":
        return _cmd_cell(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "farm":
        return _cmd_farm(args)
    if args.command == "cache":
        return _cmd_cache(args)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
