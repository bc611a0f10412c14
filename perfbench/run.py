"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload terasort-rack --seed 1 --seconds 35 --trace 0

Workloads: terasort-rack, bulk-hybrid, farm-serve (see README.md). With
``--trace 0`` the run measures the end-to-end metrics untraced; with
``--trace 1`` it runs a fixed amount of work untraced and then traced,
and reports the per-layer metrics. Either way it prints a table of
metrics with units, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Runs from any directory; builds nothing; writes only under
``.perfbench_run/`` in the checkout, and removes what it wrote.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))

#: End-to-end metrics (``--trace 0``), as declared in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"), ("cells_per_s", "1/s"), ("result_p50_s", "s"),
    ("result_p90_s", "s"), ("warm_cells_per_s", "1/s"),
    ("warm_result_p50_s", "s"), ("warm_result_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: Per-layer metrics (``--trace 1``), as declared in BENCHMARK.json.
PER_LAYER = (
    ("sim.events", "count"), ("sim.schedules", "count"), ("sim.self_s", "s"),
    ("net.port_sends", "count"), ("net.self_s", "s"),
    ("core.enqueues", "count"), ("core.drops_early", "count"),
    ("core.ack_drops", "count"), ("core.syn_drops", "count"),
    ("core.marks", "count"), ("core.self_s", "s"),
    ("tcp.retransmits", "count"), ("tcp.rtos", "count"), ("tcp.self_s", "s"),
    ("fluid.promotions", "count"), ("fluid.byte_share", "ratio"),
    ("fluid.self_s", "s"), ("mapreduce.self_s", "s"), ("stats.self_s", "s"),
    ("experiments.self_s", "s"), ("farm.submit_s", "s"), ("farm.wait_s", "s"),
    ("farm.fetch_s", "s"), ("farm.executed", "count"),
    ("farm.cached", "count"), ("farm.dedup_share", "ratio"),
    ("farm.self_s", "s"), ("other.self_s", "s"), ("trace.overhead", "ratio"),
)
#: Set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5


def measure_setup(workload: str, seed: int) -> float:
    """Median over set-up probes of the time from launching one to its
    ``ready`` line, less the two speed-reference loops the probe runs
    around its set-up, and scaled by them to the nominal host (see
    ``speedref``)."""
    from speedref import slowdown

    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
             str(seed)],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            host_s = perf_counter() - t0
            _rest, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        word, *refs = line.split() or [""]
        if word != "ready" or len(refs) != 2 or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): "
                               f"{line}{err}")
        refs = [float(r) for r in refs]
        samples.append((host_s - sum(refs)) / slowdown(refs))
    return statistics.median(samples)


def run(workload: str, seed: int, seconds: float, trace: bool, run_dir: str):
    from farmrun import run_farm, trace_farm
    from localrun import run_local, trace_local

    if trace:
        return (trace_farm(seed, ROOT) if workload == "farm-serve"
                else trace_local(workload, seed))
    setup_s = measure_setup(workload, seed)
    out = (run_farm(seed, seconds, ROOT) if workload == "farm-serve"
           else run_local(workload, seed, seconds, run_dir))
    out.put("setup_s", setup_s, "s")
    return out


def main(argv=None) -> int:
    from cells import GOLDEN_SEED, HELD_OUT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument(
        "--seed", type=int, default=GOLDEN_SEED,
        help=f"input seed (goldens exist for {GOLDEN_SEED}; "
             f"{HELD_OUT_SEED} is held out for checking claims)")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from farmrun import RUN_ROOT

    os.makedirs(os.path.join(ROOT, RUN_ROOT), exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, RUN_ROOT))
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace),
                  run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, RUN_ROOT))
        except OSError:
            pass  # another run's files are still there

    declared = PER_LAYER if args.trace else END_TO_END
    missing = [name for name, _unit in declared if name not in out.metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  ({args.seconds:g} s)")
    for name, unit in declared:
        print(f"  {name:<20} {out.metrics[name][0]:>14.6g} {unit}")
    print(f"  {'error_rate':<20} {out.failed / max(out.attempted, 1):>14.6g} "
          f"ratio  ({out.failed} failed of {out.attempted} cells)")
    for note in out.notes:
        print(f"  note: {note}")
    for error in out.errors[:20]:
        print(f"  ERROR: {error}")
    print(json.dumps({
        "correct": not out.errors and out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": out.metrics[name][0], "unit": unit}
                    for name, unit in declared},
    }))
    return 0


def _checkout_ok() -> bool:
    """The benchmark measures the checkout's own ``src/repro``, never an
    installed copy."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no src/repro under {ROOT}", file=sys.stderr)
        return False
    sys.path.insert(0, SRC)
    import repro

    return os.path.abspath(repro.__file__).startswith(SRC + os.sep)


if __name__ == "__main__":
    if not _checkout_ok():
        sys.exit(2)
    os.chdir(ROOT)
    sys.exit(main())
