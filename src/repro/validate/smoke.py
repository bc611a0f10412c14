"""Smoke gates: one registry and one harness for every determinism gate.

Each gate pins a handful of cells and names the properties they must
keep. The harness (:func:`run_gate`, exposed as ``repro smoke <gate>``)
does the part every gate shares, once:

* runs each pinned cell plain, optionally again (``rerun``), and once
  with a :class:`~repro.validate.ValidationSuite` armed;
* compares the run fingerprints — :func:`fingerprint` plus the manifest
  blocks the gate folds in — so a rerun or an armed run that moves any
  counter fails ``identical_rerun`` / ``identical_armed``, and any
  invariant breach fails ``checkers_clean``;
* runs the gate's extra named assertions (regime pinning, α inflation,
  fluid tolerances, cache resume, …);
* prints one verdict line per named check and returns one
  ``repro.smoke/v1`` manifest whose ``ok`` is the gate verdict.

Arming the checkers must not perturb a run, so identical armed
fingerprints prove the observation layer stayed an observation layer.

Gates whose work is not a cell replay (``farm``, ``bench``, ``sweep``)
declare no cells; their assertion function is the gate body.
Gate-specific modules are imported inside the gate functions, so
loading the CLI loads none of them.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import (Any, Callable, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple)

from repro.core.protection import ProtectionMode
from repro.experiments.config import (
    SHALLOW_BUFFER_PACKETS,
    CellResult,
    ExperimentConfig,
    QueueSetup,
)
from repro.experiments.runner import run_cell
from repro.tcp.endpoint import TcpVariant
from repro.units import us
from repro.validate.checkers import (
    CHECKER_NAMES,
    TcpChecker,
    ValidationSuite,
    checkers_from_names,
)

__all__ = ["smoke_cells", "build_suite", "check_cell", "fingerprint",
           "stability_smoke_cells", "Check", "CellRuns", "GateRun", "Gate",
           "GATES", "SMOKE_SCHEMA", "run_gate"]

SMOKE_SCHEMA = "repro.smoke/v1"

#: Default dataset scale for ``repro check`` cells (1/32 of the 256 MB
#: reference — the same size the sweep smoke tests use).
SMOKE_SCALE = 0.03125

#: Dataset scale of the ``mix`` gate's coexistence cell (4 MB shuffle).
MIX_SMOKE_SCALE = 1.0 / 16.0


def smoke_cells(scale: float = SMOKE_SCALE,
                seed: int = 42) -> List[Tuple[str, ExperimentConfig]]:
    """The representative fig2/3/4 cells ``repro check`` validates."""
    def cfg(kind: str, protection: ProtectionMode = ProtectionMode.DEFAULT,
            ) -> ExperimentConfig:
        queue = QueueSetup(
            kind=kind,
            buffer_packets=SHALLOW_BUFFER_PACKETS,
            target_delay_s=None if kind == "droptail" else us(500.0),
            protection=protection,
        )
        return ExperimentConfig(
            queue=queue, variant=TcpVariant.ECN, seed=seed,
        ).scaled(scale)

    return [
        ("red-default", cfg("red")),
        ("red-ece", cfg("red", ProtectionMode.ECE)),
        ("red-ack+syn", cfg("red", ProtectionMode.ACK_SYN)),
        ("droptail-shallow", cfg("droptail")),
        ("marking", cfg("marking")),
        ("codel-default", cfg("codel")),
    ]


def stability_smoke_cells(seed: int = 42):
    """The pinned regime cells the ``stability`` gate classifies.

    Returns ``(name, expected_classification, config)`` triples: a
    NewReno+ECN marking queue at an aggressive 100 µs threshold (a clean
    synchronized sawtooth — the canonical limit cycle) and DCTCP against
    a 500 µs threshold (K large enough that the √K-relative amplitude is
    small — the canonical damped loop). Expectations are part of the
    contract: a classifier or simulator change that flips either regime
    fails the smoke, not just the bit-identity compare.
    """
    from repro.analysis.stability import CLASS_LIMIT_CYCLE, CLASS_STABLE
    from repro.experiments.probe import StabilityProbeConfig

    def probe(kind: str, variant: TcpVariant, td_s: float,
              ) -> StabilityProbeConfig:
        return StabilityProbeConfig(
            queue=QueueSetup(kind=kind,
                             buffer_packets=SHALLOW_BUFFER_PACKETS,
                             target_delay_s=td_s),
            variant=variant, duration_s=1.0, seed=seed,
        )

    return [
        ("oscillating", CLASS_LIMIT_CYCLE,
         probe("marking", TcpVariant.ECN, us(100.0))),
        ("damped", CLASS_STABLE,
         probe("marking", TcpVariant.DCTCP, us(500.0))),
    ]


def build_suite(config: ExperimentConfig,
                checker_names: Optional[List[str]] = None) -> ValidationSuite:
    """A suite for one cell, with the cell's RTO bounds wired into the
    TCP checker."""
    checkers = checkers_from_names(checker_names or list(CHECKER_NAMES))
    tcp_cfg = config.tcp_config()
    for c in checkers:
        if isinstance(c, TcpChecker):
            c.min_rto = tcp_cfg.min_rto
            c.max_rto = tcp_cfg.max_rto
    return ValidationSuite(checkers)


def fingerprint(cell: CellResult,
                blocks: Sequence[str] = ()) -> Dict[str, object]:
    """Deterministic run digest: identical runs ⇒ identical fingerprints.

    Covers the simulated clock, the latency distribution endpoints, TCP
    effort counters, the event count and every per-class queue counter —
    any perturbation of the event sequence moves at least one of these.
    ``blocks`` names manifest blocks folded in verbatim (e.g.
    ``("workloads",)`` for mix cells, ``("fixedk",)`` for Fixed-K cells).
    """
    m = cell.metrics
    q = m.queue
    fp: Dict[str, object] = {
        "runtime": m.runtime,
        "mean_latency": m.mean_latency,
        "p99_latency": m.p99_latency,
        "packets_delivered": m.packets_delivered,
        "retransmits": m.retransmits,
        "rtos": m.rtos,
        "syn_retries": m.syn_retries,
        "events": int(cell.manifest["timings"]["events"]),
        "queue": {
            "arrivals": q.arrivals,
            "departures": q.departures,
            "drops_tail": q.drops_tail,
            "drops_early": q.drops_early,
            "marks": q.marks,
            "protected": q.protected,
            "ect_drops": q.ect_drops,
            "ack_drops": q.ack_drops,
            "syn_drops": q.syn_drops,
        },
    }
    for block in blocks:
        fp[block] = cell.manifest[block]
    return fp


def check_cell(config: ExperimentConfig,
               checker_names: Optional[List[str]] = None) -> Dict[str, object]:
    """Run one cell unarmed then armed; validate and compare fingerprints.

    Returns a JSON-serialisable record::

        {"label": ..., "ok": bool, "identical": bool,
         "validation": <suite.as_dict()>, "fingerprint": {...}}

    ``ok`` requires both zero invariant violations **and** a bit-identical
    armed re-run.
    """
    plain = run_cell(config)
    suite = build_suite(config, checker_names)
    armed = run_cell(config, checks=suite)
    fp_plain = fingerprint(plain)
    fp_armed = fingerprint(armed)
    identical = fp_plain == fp_armed
    validation = armed.manifest["validation"]
    return {
        "label": config.label(),
        "ok": bool(validation["ok"]) and identical,
        "identical": identical,
        "validation": validation,
        "fingerprint": fp_plain,
        "fingerprint_armed": None if identical else fp_armed,
    }


# -- the harness --------------------------------------------------------------


class Check(NamedTuple):
    """One named assertion of a gate and its verdict."""

    name: str
    ok: bool
    cell: Optional[str] = None  #: the cell it is about; None = gate-wide
    detail: str = ""


@dataclass
class CellRuns:
    """One pinned cell as the harness ran it: its plain run and that
    run's fingerprint (the rerun and armed runs matched it or failed)."""

    name: str
    config: Any
    plain: CellResult
    fingerprint: Dict[str, object]


@dataclass
class GateRun:
    """What a gate's assertions see: the seed, the replayed cells, and
    ``extra`` — blocks they add to the gate manifest."""

    seed: int
    say: Callable[[str], None]
    cells: List[CellRuns] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Gate:
    """A registered smoke gate.

    ``cells(seed)`` gives the pinned ``(name, config)`` pairs the harness
    replays (None: no replay); ``blocks`` are the manifest blocks folded
    into their fingerprints; ``rerun`` adds a second plain run;
    ``analyses()`` builds the post-run analyses every run gets;
    ``checks`` maps the :class:`GateRun` to the extra named assertions.
    """

    name: str
    summary: str
    cells: Optional[Callable[[int], List[Tuple[str, Any]]]] = None
    blocks: Tuple[str, ...] = ()
    rerun: bool = True
    analyses: Callable[[], list] = list
    checks: Optional[Callable[[GateRun], List[Check]]] = None


def _canon(fp: Dict[str, object]) -> str:
    # Compared as canonical JSON — what the manifest records — so a NaN
    # in an analysis block compares equal to itself.
    return json.dumps(fp, sort_keys=True)


def _replay(gate: Gate, run: GateRun, checks: List[Check]) -> None:
    for name, config in gate.cells(run.seed):
        run.say(f"{name}: {config.label()}")
        plain = run_cell(config, analyses=gate.analyses())
        rerun = (run_cell(config, analyses=gate.analyses())
                 if gate.rerun else None)
        armed = run_cell(config, checks=build_suite(config),
                         analyses=gate.analyses())
        fp = fingerprint(plain, gate.blocks)
        run.cells.append(CellRuns(name, config, plain, fp))
        if rerun is not None:
            checks.append(Check(
                "identical_rerun",
                _canon(fp) == _canon(fingerprint(rerun, gate.blocks)), name))
        checks.append(Check(
            "identical_armed",
            _canon(fp) == _canon(fingerprint(armed, gate.blocks)), name))
        validation = armed.manifest["validation"]
        first = validation["violations"][:1]
        checks.append(Check(
            "checkers_clean", bool(validation["ok"]), name,
            f"{validation['violation_count']} violations"
            + "".join(f"; first: t={v['time']:.6f} [{v['checker']}] "
                      f"{v['where']}: {v['message']}" for v in first)))


def run_gate(name: str, seed: int = 42, quiet: bool = False) -> Dict[str, Any]:
    """Run gate ``name``; print one verdict line per check; return the
    ``repro.smoke/v1`` manifest (``["ok"]`` is the verdict).

    A gate that raises fails its ``completed`` check (traceback on
    stderr) instead of crashing, so the manifest still says what ran
    before it.
    """
    gate = GATES[name]
    say = ((lambda _msg: None) if quiet
           else (lambda msg: print(f"  {msg}", file=sys.stderr)))
    run = GateRun(seed, say)
    checks: List[Check] = []
    t0 = time.perf_counter()
    try:
        if gate.cells is not None:
            _replay(gate, run, checks)
        if gate.checks is not None:
            checks.extend(gate.checks(run))
    except Exception as exc:
        traceback.print_exc()
        checks.append(Check("completed", False,
                            detail=f"{type(exc).__name__}: {exc}"))
    wall_s = time.perf_counter() - t0
    ok = bool(checks) and all(c.ok for c in checks)
    for c in checks:
        print(f"{'ok' if c.ok else 'FAIL':<4} {c.name:<25} {c.cell or '-'}"
              + (f"  ({c.detail})" if c.detail else ""))
    print(f"smoke {name}: {'OK' if ok else 'FAILED'} "
          f"({sum(c.ok for c in checks)}/{len(checks)} checks, "
          f"wall time {wall_s:.1f}s)")
    return {
        "schema": SMOKE_SCHEMA,
        "gate": name,
        "ok": ok,
        "seed": seed,
        "wall_s": wall_s,
        "checkers": list(CHECKER_NAMES) if gate.cells is not None else [],
        "failed": sorted({c.name for c in checks if not c.ok}),
        "checks": [c._asdict() for c in checks],
        "cells": [{"name": r.name, "label": r.config.label(),
                   "fingerprint": r.fingerprint} for r in run.cells],
        **run.extra,
    }


# -- the gates ----------------------------------------------------------------

#: The ``check`` gate's subset of :func:`smoke_cells`: one RED
#: protection-mode pair plus the other qdiscs — every queue hot path.
CHECK_SMOKE_CELLS = ("red-default", "red-ack+syn", "droptail-shallow",
                     "marking", "codel-default")

#: Randomized scenarios the ``check`` gate fuzzes.
CHECK_SMOKE_FUZZ = 10

#: The ``bench`` gate's committed baseline, tolerance and report path.
BENCH_BASELINE = "benchmarks/BENCH_baseline.json"
BENCH_TOLERANCE = 0.25
BENCH_REPORT = "BENCH_smoke.json"


def _check_cells(seed: int):
    return [(n, c) for n, c in smoke_cells(SMOKE_SCALE, seed)
            if n in CHECK_SMOKE_CELLS]


def _fuzz(run: GateRun) -> List[Check]:
    from repro.validate.fuzz import fuzz

    report = fuzz(n=CHECK_SMOKE_FUZZ, seed=run.seed)
    run.extra["fuzz"] = report.as_dict()
    return [Check("fuzz_clean", report.ok,
                  detail=f"{report.scenarios_run} scenarios, "
                         f"{len(report.failures)} failing")]


def _mix_cells(seed: int):
    from repro.experiments.mix import MixConfig

    return [("coexistence", MixConfig(
        queue=QueueSetup(kind="red", target_delay_s=us(200)),
        variant=TcpVariant.ECN, n_hosts=8, n_reducers=4, rpc_fanout=4,
        rpc_rate_qps=100.0, bg_rate_fps=20.0, seed=seed,
    ).scaled(MIX_SMOKE_SCALE))]


def _resume(run: GateRun, todo) -> List[Check]:
    """Run a grid slice through the parallel cache-aware runner, then
    resume it: the resume must execute nothing and serve every cell."""
    from repro.experiments.cache import ResultCache
    from repro.experiments.parallel import run_cells

    with tempfile.TemporaryDirectory(prefix="smoke-cache-") as root:
        cache = ResultCache(root)
        first = run_cells(todo, jobs=2, cache=cache, resume=False)
        again = run_cells(todo, jobs=2, cache=cache, resume=True)
    fps = {label: fingerprint(cell) for label, cell in first.results.items()}
    run.extra["grid"] = {
        "executed": first.executed,
        "resumed": {"executed": again.executed, "cached": again.cached},
        "fingerprints": fps,
    }
    n = len(todo)
    return [
        Check("grid_executed", len(first.executed) == n,
              detail=f"{len(first.executed)} executed, "
                     f"{len(first.cached)} cached"),
        Check("resume_zero_executed",
              not again.executed and len(again.cached) == n,
              detail=f"{len(again.executed)} executed, "
                     f"{len(again.cached)} cached"),
        Check("resume_identical", all(
            _canon(fps[label]) == _canon(fingerprint(cell))
            for label, cell in again.results.items())),
    ]


def _mix_grid_resume(run: GateRun) -> List[Check]:
    from repro.experiments.mix import mix_grid

    return _resume(run, mix_grid(0.0625, run.seed)[:2])


def _sweep_resume(run: GateRun) -> List[Check]:
    from repro.experiments.grids import grid_cells

    return _resume(run, grid_cells(False, SMOKE_SCALE, run.seed)[:4])


def _stability_cells(seed: int):
    return [(name, cfg) for name, _exp, cfg in stability_smoke_cells(seed)]


def _stability_analyses() -> list:
    from repro.analysis.stability import StabilityAnalysis

    return [StabilityAnalysis()]


def _regimes(run: GateRun) -> List[Check]:
    expected = {name: exp for name, exp, _ in stability_smoke_cells(run.seed)}
    checks = []
    for r in run.cells:
        got = r.plain.manifest["stability"]["classification"]
        checks.append(Check("regime", got == expected[r.name], r.name,
                            f"{got}, expected {expected[r.name]}"))
    return checks


def _fixedk_cells(seed: int):
    from repro.experiments.fixedk import fixedk_smoke_cells

    return fixedk_smoke_cells(seed)


def _flaws_cells(seed: int):
    from repro.experiments.flaws import FLAWS_PROFILES, flaws_cell

    return [(p or "fixed", flaws_cell(p, seed=seed)) for p in FLAWS_PROFILES]


def _alpha_inflation(run: GateRun) -> List[Check]:
    # The pack's raison d'être: the flawed endpoints must overestimate
    # congestion on the pinned cell (time-averaged α, not the noisy
    # end-of-run snapshot).
    alpha = {r.name: r.plain.metrics.extra.get("dctcp_alpha_timeavg", 0.0)
             for r in run.cells}
    run.extra["alpha_timeavg"] = alpha
    return [Check("alpha_inflation", alpha[p] > alpha["fixed"], p,
                  f"{alpha[p]:.4f} vs fixed {alpha['fixed']:.4f}")
            for p in ("linux-dctcp", "coalesce")]


def _fluid_cells(seed: int):
    from repro.experiments.bulkcell import BulkConfig
    from repro.experiments.fixedk import FixedKConfig

    fig = dict(smoke_cells(SMOKE_SCALE, seed))
    pinned = [("red-default", fig["red-default"]), ("marking", fig["marking"]),
              ("fixedk", FixedKConfig(duration_s=0.1, drain_s=0.1, seed=seed)),
              ("bulk", BulkConfig(seed=seed))]
    return [(name, replace(cfg, fidelity="hybrid")) for name, cfg in pinned]


def _fluid_checks(run: GateRun) -> List[Check]:
    from repro.experiments.fidelity import fluid_checks

    return fluid_checks(run)


def _farm(run: GateRun) -> List[Check]:
    from repro.farm.smoke import run_smoke

    report = run_smoke(progress=run.say)
    run.extra["farm"] = {k: report[k] for k in ("wall_s", "error")
                         if k in report}
    return [Check(name, ok, detail="" if ok else report.get("error", ""))
            for name, ok in report["checks"].items()]


def _bench(run: GateRun) -> List[Check]:
    from repro.perf.bench import compare_to_baseline, run_bench, write_bench

    with open(BENCH_BASELINE) as fh:
        baseline = json.load(fh)
    report = run_bench(quick=True)
    run.extra["bench"] = {"report": write_bench(report, BENCH_REPORT),
                          "baseline": BENCH_BASELINE,
                          "tolerance": BENCH_TOLERANCE}
    ok, lines = compare_to_baseline(report, baseline,
                                    tolerance=BENCH_TOLERANCE)
    return ([Check("deterministic", row["deterministic"], name)
             for name, row in report["macro"].items()]
            + [Check("within_baseline", ok, detail="; ".join(lines))])


#: Every gate, in the order ``repro smoke --list`` prints them.
GATES: Dict[str, Gate] = {g.name: g for g in (
    Gate("check", "5 fig2/3/4 cells at 1/32 scale, plain + armed; "
                  f"{CHECK_SMOKE_FUZZ} fuzz scenarios",
         cells=_check_cells, rerun=False, checks=_fuzz),
    Gate("mix", "the coexistence cell (shuffle + RPC + background) at 1/16 "
                "scale; a 2-cell mix grid slice resumed from cache",
         cells=_mix_cells, blocks=("workloads",), checks=_mix_grid_resume),
    Gate("stability", "one oscillating and one damped probe cell; regimes "
                      "pinned",
         cells=_stability_cells, blocks=("stability",),
         analyses=_stability_analyses, checks=_regimes),
    Gate("fixedk", "the 8-cell Fixed-K mini-grid on the small leaf-spine",
         cells=_fixedk_cells, blocks=("fixedk",)),
    Gate("flaws", "the tiny-buffer incast cell per DCTCP flaw profile; "
                  "flawed alpha above the corrected stack's",
         cells=_flaws_cells, checks=_alpha_inflation),
    Gate("fluid", "hybrid fidelity on 2 fig cells, a fixedk cell and the "
                  "bulk pairs cell; no-op bit-identity and bulk tolerances",
         cells=_fluid_cells, blocks=("fluid",), checks=_fluid_checks),
    Gate("farm", "a throwaway farm, two clients: dedup, streaming, "
                 "cache-served resubmission, clean shutdown",
         checks=_farm),
    Gate("bench", f"bench --quick vs {BENCH_BASELINE} at "
                  f"{BENCH_TOLERANCE:.0%} tolerance",
         checks=_bench),
    Gate("sweep", "4 target-delay grid cells through the parallel runner, "
                  "resumed from cache",
         checks=_sweep_resume),
)}
