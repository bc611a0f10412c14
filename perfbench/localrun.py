"""terasort-rack and bulk-hybrid: serial ``run_cell`` in this process.

A run is a sequence of blocks; a block is one cold round of the
workload's cells. Each cold cell runs through ``run_cell`` with no cache;
its result goes into a ``ResultCache`` (not timed), and a warm window a
third as long as the cell follows, reading the cached cells back with
``ResultCache.get`` — what re-running a grid against a warm cache costs.
Interleaving cell by cell makes both phases sample the same stretch of
machine time, and rates are medians over the blocks. The speed
reference (``speedref``) runs untimed after each cold cell, and a block's
samples scale its cold figures to the nominal host; a cache read, which
lasts well under the host's fast and slow spells, is scaled by the short
reference run right after it.
Only the program's calls are timed; checking their results is not.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import List

from cells import Checker, fingerprint, local_cells
from layermap import LAYERS
from measure import Outcome, Phase, self_peak_rss_mb
from spans import SpanTracer, instrument
from speedref import reference_s, short_slowdown

#: Share of each block spent cold; the warm windows get the rest.
COLD_SHARE = 0.75


def run_local(workload: str, seed: int, seconds: float,
              run_dir: str) -> Outcome:
    """Untraced run: the end-to-end metrics."""
    from repro.experiments import run_cell
    from repro.experiments.cache import ResultCache

    cells = local_cells(workload, seed)
    checker = Checker(workload, seed)
    cache = ResultCache(os.path.join(run_dir, "cache"))
    out = Outcome()
    cached: List[tuple] = []
    reads = 0

    def timed(call, label, config, phase: Phase, paired: bool = False):
        """One cell through ``call``, timed and checked; its result, or
        None when it failed to produce one. With ``paired``, a short
        speed reference right after the call gives its own slowdown."""
        t0 = perf_counter()
        try:
            result = call(config)
        except Exception as exc:  # a raising cell is a failed cell
            out.fail(f"{label}: {type(exc).__name__}: {exc}")
            return None
        host_s = perf_counter() - t0
        phase.latency.append(host_s)
        if paired:
            phase.paired.append(short_slowdown())
        phase.wall += host_s
        phase.cells += 1
        if result is None:
            out.fail(f"{label}: cache miss after put")
            return None
        out.cell(checker.check(label, fingerprint(result)))
        return result

    warm_per_cold = (1 - COLD_SHARE) / COLD_SHARE
    blocks: List[Phase] = []
    warm_blocks: List[Phase] = []
    start = perf_counter()
    while True:
        t_block = perf_counter()
        cold, warm = Phase(), Phase()
        for label, config in cells:
            result = timed(run_cell, label, config, cold)
            if result is not None and (label, config) not in cached:
                cache.put(result)
                cached.append((label, config))
            cold.ref.append(reference_s())
            while cached and warm.wall < cold.wall * warm_per_cold:
                label_w, config_w = cached[reads % len(cached)]
                timed(cache.get, label_w, config_w, warm, paired=True)
                reads += 1
        blocks.append(cold)
        warm_blocks.append(warm)
        now = perf_counter()
        if now + (now - t_block) > start + seconds:
            break
    out.put_phases("", blocks)
    out.put_phases("warm_", warm_blocks)
    out.put("peak_rss_mb", self_peak_rss_mb(), "MB")
    out.errors.extend(checker.errors)
    return out


def trace_local(workload: str, seed: int) -> Outcome:
    """One round untraced, then the same round traced: per-layer metrics.

    The traced round must reproduce the untraced fingerprints exactly.
    """
    from repro.experiments import run_cell

    cells = local_cells(workload, seed)
    checker = Checker(workload, seed)
    out = Outcome()

    t0 = perf_counter()
    for label, config in cells:
        out.cell(checker.check(label, fingerprint(run_cell(config))))
    untraced_s = perf_counter() - t0

    tracer = SpanTracer()
    results = []
    with instrument(tracer):
        tracer.begin()
        for label, config in cells:
            results.append(tracer.call("experiments", "run_cell",
                                       run_cell, config))
        tracer.end()
    for (label, _config), result in zip(cells, results):
        out.cell(checker.check(label, fingerprint(result)))
    out.errors.extend(checker.errors)

    fps = [fingerprint(r) for r in results]
    total = {key: sum(fp[key] for fp in fps) for key in fps[0]}
    arrival_bytes = sum(r.metrics.queue.arrival_bytes for r in results)
    fluid_bytes = sum(r.metrics.queue.fluid_bytes for r in results)
    promotions = sum((r.manifest.get("fluid") or {}).get("promotions", 0)
                     for r in results)
    put_layers(out, [tracer], tracer.wall_s, untraced_s)
    out.put("sim.events", total["events"], "count")
    out.put("sim.schedules", sum(tracer.count("sim", f"Simulator.{a}")
                                 for a in ("schedule", "schedule_now",
                                           "schedule_at")), "count")
    out.put("net.port_sends", tracer.count("net", "Port.send"), "count")
    out.put("core.enqueues", total["queue.arrivals"], "count")
    for key in ("drops_early", "ack_drops", "syn_drops", "marks"):
        out.put(f"core.{key}", total[f"queue.{key}"], "count")
    out.put("tcp.retransmits", total["retransmits"], "count")
    out.put("tcp.rtos", total["rtos"], "count")
    out.put("fluid.promotions", promotions, "count")
    out.put("fluid.byte_share",
            fluid_bytes / arrival_bytes if arrival_bytes else 0.0, "ratio")
    for name in ("farm.submit_s", "farm.wait_s", "farm.fetch_s"):
        out.put(name, 0.0, "s")
    for name in ("farm.executed", "farm.cached"):
        out.put(name, 0, "count")
    out.put("farm.dedup_share", 0.0, "ratio")
    return out


def put_layers(out: Outcome, tracers: List[SpanTracer], traced_s: float,
               untraced_s: float) -> None:
    """Per-layer self times summed over ``tracers`` (one per thread), and
    the tracing overhead: ``traced_s`` over ``untraced_s`` for equal
    work."""
    for tracer in tracers:
        if tracer.accounting_error() > 1e-6 * tracer.wall_s + 1e-6:
            out.fail(f"span accounting off by {tracer.accounting_error():.3g}"
                     " s", cell=False)
    for layer in LAYERS:
        out.put(f"{layer}.self_s",
                sum(t.layer_self()[layer] for t in tracers), "s")
    out.put("trace.overhead", traced_s / untraced_s, "ratio")
    out.notes.append(f"traced {traced_s:.2f} s vs untraced {untraced_s:.2f} s")
