"""farm-serve: a ``repro serve`` subprocess driven by two closed-loop clients.

The farm runs with :data:`WORKERS` workers in a throwaway directory under the
checkout, with a relative socket path so it stays far below the
``AF_UNIX`` length limit wherever the checkout lives. Two client
threads each submit a job of twelve small cells, watch it to the end,
fetch and check its results, then submit the next. Four cells of each
job also appear in the other client's job of the same number, so the
farm runs them once for both (cross-client dedup). The cold phase runs
new cells and fills the farm's cache; the warm phase resubmits the cold
jobs, which the cache serves. The speed reference (``speedref``) runs
in this process at every phase boundary, while the farm is idle; the
mean over the whole run scales all of the run's figures to the nominal
host. A run ends with a ``shutdown`` that must remove the socket and
leave no worker alive.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import Dict, List, Optional

from cells import Checker, farm_job, fingerprint
from localrun import put_layers
from measure import Outcome, Phase, pct, self_peak_rss_mb
from spans import SpanTracer
from speedref import reference_s

#: Scratch directory under the checkout root (listed in .gitignore).
RUN_ROOT = ".perfbench_run"
#: Share of the run time spent in the cold phase; the warm phase gets the
#: rest, which still serves thousands of cells.
COLD_SHARE = 0.7
#: Blocks of cold-then-warm jobs in an untraced run: alternating spreads
#: both phases over the whole run, so a stretch of slow machine time hits
#: them alike; rates are medians over the blocks.
BLOCKS = 4
#: Farm workers. One, not one per CPU: with the scheduler and the two
#: client threads also running, more workers than that oversubscribe a
#: 2-CPU host, and the figures then follow the host's scheduler.
WORKERS = 1
#: Cold jobs of one client resubmitted together as one warm job, so that
#: a warm job's time is mostly the farm's per-cell work.
WARM_MERGE = 8
#: Speed-reference samples taken at each phase boundary of a timed run.
REF_SAMPLES = 8
#: Jobs per client in the fixed-size passes of a traced run.
TRACE_COLD_JOBS, TRACE_WARM_JOBS = 5, 10
#: Farm cells re-run locally after the phases, to check farm results.
LOCAL_CHECKS = 8

DEDUP, CACHED, FAILED = " [dedup]", " [cached]", " [failed]"


def _proc_alive(pid: int) -> bool:
    """True unless ``pid`` is gone or a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _vm_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Farm:
    """One ``repro serve`` subprocess and its state directory."""

    def __init__(self, root: str, workers: int):
        base = os.path.join(root, RUN_ROOT)
        os.makedirs(base, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="farm-", dir=base)
        rel = os.path.relpath(self.dir, root)
        self.socket = os.path.join(rel, "s")
        self.root = root
        self.workers: List[int] = []
        self._log_path = os.path.join(self.dir, "serve.log")
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        with open(self._log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--farm-dir", os.path.join(rel, "state"),
                 "--workers", str(workers), "--socket", self.socket],
                cwd=root, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log,
                start_new_session=True)

    def log_tail(self) -> str:
        try:
            with open(self._log_path) as fh:
                return fh.read()[-2000:]
        except OSError:
            return ""

    def wait_ready(self, client, timeout_s: float = 60.0) -> None:
        """Block until ``ping`` answers; record the worker pids."""
        from repro.errors import FarmError

        deadline = time.monotonic() + timeout_s
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.proc.returncode}: "
                    f"{self.log_tail()}")
            try:
                client.ping()
                break
            except FarmError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
        pid = self.proc.pid
        try:
            with open(f"/proc/{pid}/task/{pid}/children") as fh:
                self.workers = [int(p) for p in fh.read().split()]
        except OSError:
            self.workers = []

    def peak_rss_mb(self) -> float:
        """Summed peak resident memory of the scheduler and its workers."""
        return sum(_vm_hwm_mb(pid) for pid in [self.proc.pid] + self.workers)

    def close(self, client) -> List[str]:
        """Shut the farm down cleanly; returns what was left behind."""
        from repro.errors import FarmError

        problems = []
        try:
            client.shutdown()
            code = self.proc.wait(timeout=60)
            if code != 0:
                problems.append(f"repro serve exited with {code}: "
                                f"{self.log_tail()}")
        except (FarmError, subprocess.TimeoutExpired) as exc:
            problems.append(f"shutdown failed: {exc}")
        if os.path.exists(os.path.join(self.root, self.socket)):
            problems.append("socket left behind after shutdown")
        alive = [pid for pid in self.workers if _proc_alive(pid)]
        if alive:
            problems.append(f"workers {alive} alive after shutdown")
        self.kill()
        return problems

    def kill(self) -> None:
        """Stop every farm process still running and remove the directory."""
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except OSError:
                pass
            self.proc.wait()
        for pid in self.workers:
            if _proc_alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        shutil.rmtree(self.dir, ignore_errors=True)


class FarmStats:
    """Per-op figures one client collected over one phase kind."""

    def __init__(self) -> None:
        self.wait: List[float] = []
        self.submit: List[float] = []
        self.fetch: List[float] = []
        self.counts: Dict[str, int] = {}
        self.missed = 0


class ClientLoop:
    """One closed-loop client: submit, watch, fetch, check, repeat."""

    def __init__(self, socket: str, seed: int, index: int, checker: Checker,
                 lock: threading.Lock, out: Outcome, traced: bool):
        from repro.farm.client import FarmClient

        self.client = FarmClient(socket, timeout=120.0,
                                 client=f"bench-{index}")
        self.seed, self.index = seed, index
        self.checker, self.lock, self.out = checker, lock, out
        self.tracer = SpanTracer() if traced else None
        self.jobs: List[list] = []  #: cold jobs so far, in order
        self.warm_jobs = 0
        self.results: Dict[str, object] = {}
        self.stats = {"cold": FarmStats(), "warm": FarmStats()}

    def _op(self, name: str, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call("farm", f"FarmClient.{name}", fn, *args)

    def _job(self, cells, stats: FarmStats, phase: Phase) -> None:
        from repro.errors import FarmError

        t_sub = perf_counter()
        resp = self._op("submit", self.client.submit, cells)
        t_resp = perf_counter()
        stats.submit.append(t_resp - t_sub)
        counts = resp["cells"]
        done_at: Dict[str, float] = {}
        outcome: Dict[str, str] = {}
        t_watch = t_resp
        if resp["state"] == "running":
            def watch():
                return [(perf_counter(), ev) for ev in
                        self.client.watch(resp["id"], timeout=120.0)]

            for t, ev in self._op("watch", watch):
                if ev["ev"] == "watch":
                    t_watch = t
                elif ev["ev"] == "progress":
                    label, kind = ev["label"], "executed"
                    for suffix, name in ((DEDUP, "dedup"), (CACHED, "cached"),
                                         (FAILED, "failed")):
                        if label.endswith(suffix):
                            label, kind = label[:-len(suffix)], name
                    done_at[label], outcome[label] = t, kind
                elif ev["ev"] == "job_done":
                    counts = ev["cells"]
            # Cells that finished before the watch attached: the watch
            # snapshot is the earliest moment the client could know.
            stats.missed += sum(1 for label, _c in cells
                                if label not in done_at)
        for key in ("executed", "cached", "dedup", "failed"):
            stats.counts[key] = stats.counts.get(key, 0) + counts.get(key, 0)
        t_f = perf_counter()
        try:
            results = self._op("fetch", self.client.fetch, resp["id"])
        except FarmError as exc:
            results = {}
            with self.lock:
                self.out.errors.append(f"fetch {resp['id']}: {exc}")
        stats.fetch.append(perf_counter() - t_f)
        for label, _config in cells:
            latency = done_at.get(label, t_watch) - t_sub
            phase.cells += 1
            phase.latency.append(latency)
            result = results.get(label)
            with self.lock:
                if result is None:
                    self.out.fail(f"{label}: no result from the farm")
                    continue
                self.out.cell(self.checker.check(label, fingerprint(result)))
            self.results.setdefault(label, result)
            if outcome.get(label) in ("executed", "dedup"):
                stats.wait.append(
                    latency - result.manifest["timings"]["wall_s"])

    def run(self, kind: str, phase: Phase, deadline: Optional[float],
            jobs: Optional[int]) -> None:
        """Run ``kind`` ("cold": new jobs; "warm": resubmit cold jobs in
        turn) until ``deadline``, or for ``jobs`` jobs."""
        from repro.errors import FarmError

        k = 0
        while (perf_counter() < deadline) if jobs is None else (k < jobs):
            if kind == "cold":
                cells = farm_job(self.seed, len(self.jobs), self.index)
                self.jobs.append(cells)
            else:
                merge = min(WARM_MERGE, len(self.jobs))
                first = self.warm_jobs * merge
                cells = [cell for k in range(first, first + merge)
                         for cell in self.jobs[k % len(self.jobs)]]
                self.warm_jobs += 1
            try:
                self._job(cells, self.stats[kind], phase)
            except (FarmError, OSError) as exc:
                # A job lost to a farm or socket error fails its cells and
                # ends this client's phase.
                with self.lock:
                    for label, _config in cells:
                        self.out.fail(f"{label}: {type(exc).__name__}: {exc}")
                return
            k += 1


def _farm_pass(seed: int, root: str, out: Outcome, traced: bool,
               seconds: Optional[float]):
    """Start a farm, run its blocks of cold then warm jobs, check, shut
    down.

    With ``seconds``, :data:`BLOCKS` blocks share the time; with None, one
    block of fixed size (the traced run's passes). Returns ``(loops,
    cold_blocks, warm_blocks)``.
    """
    from repro.experiments import run_cell
    from repro.farm.client import FarmClient

    checker = Checker("farm-serve", seed)
    lock = threading.Lock()
    farm = Farm(root, WORKERS)
    blocks = {"cold": [], "warm": []}
    try:
        client = FarmClient(farm.socket, timeout=60.0, client="bench")
        farm.wait_ready(client)
        loops = [ClientLoop(farm.socket, seed, i, checker, lock, out, traced)
                 for i in (0, 1)]
        for loop in loops:
            if loop.tracer is not None:
                loop.tracer.begin()
        refs: List[float] = []
        with ThreadPoolExecutor(max_workers=2) as pool:
            for _block in range(BLOCKS if seconds is not None else 1):
                for kind, share, jobs in (
                        ("cold", COLD_SHARE, TRACE_COLD_JOBS),
                        ("warm", 1 - COLD_SHARE, TRACE_WARM_JOBS)):
                    if seconds is not None:
                        refs += [reference_s() for _ in range(REF_SAMPLES)]
                    phases = [Phase(), Phase()]
                    t0 = perf_counter()
                    deadline = (None if seconds is None
                                else t0 + share * seconds / BLOCKS)
                    futures = [pool.submit(loop.run, kind, phase, deadline,
                                           None if seconds is not None
                                           else jobs)
                               for loop, phase in zip(loops, phases)]
                    for f in futures:
                        f.result()
                    phases[0].add(phases[1])
                    phases[0].wall = perf_counter() - t0
                    blocks[kind].append(phases[0])
        if seconds is not None:
            refs += [reference_s() for _ in range(REF_SAMPLES)]
        for block in blocks["cold"] + blocks["warm"]:
            block.ref = refs
        for loop in loops:
            if loop.tracer is not None:
                loop.tracer.end()
        out.put("peak_rss_mb", self_peak_rss_mb() + farm.peak_rss_mb(), "MB")
    except BaseException:
        farm.kill()
        raise
    for problem in farm.close(client):
        out.fail(problem, cell=False)

    # The farm's results must equal local runs of the same configs.
    served = {label: config for loop in loops for job in loop.jobs
              for label, config in job}
    rng = random.Random(seed)
    for label in rng.sample(sorted(served), min(LOCAL_CHECKS, len(served))):
        out.cell(checker.check(label, fingerprint(run_cell(served[label]))))
    out.errors.extend(checker.errors)
    return loops, blocks["cold"], blocks["warm"]


def run_farm(seed: int, seconds: float, root: str) -> Outcome:
    """Untraced run: the end-to-end metrics."""
    out = Outcome()
    loops, cold, warm = _farm_pass(seed, root, out, False, seconds)
    out.put_phases("", cold)
    out.put_phases("warm_", warm)
    missed = sum(s.missed for lp in loops for s in lp.stats.values())
    out.notes.append(f"{missed} cells finished before their watch attached")
    return out


def trace_farm(seed: int, root: str) -> Outcome:
    """Fixed-size untraced pass, then the same pass traced: per-layer
    metrics of the client-visible farm."""
    out = Outcome()
    base, cold_u, warm_u = _farm_pass(seed, root, out, False, None)
    loops, cold_t, warm_t = _farm_pass(seed, root, out, True, None)
    put_layers(out, [lp.tracer for lp in loops],
               sum(b.wall for b in cold_t + warm_t),
               sum(b.wall for b in cold_u + warm_u))
    for loop, untraced in zip(loops, base):
        for label, result in loop.results.items():
            if fingerprint(result) != fingerprint(untraced.results[label]):
                out.fail(f"{label}: traced result differs from untraced")
    stats = [s for lp in loops for s in lp.stats.values()]
    cold = [lp.stats["cold"] for lp in loops]
    cold_cells = sum(b.cells for b in cold_t)
    for name, values in (("submit", [x for s in stats for x in s.submit]),
                         ("wait", [x for s in cold for x in s.wait]),
                         ("fetch", [x for s in stats for x in s.fetch])):
        out.put(f"farm.{name}_s", pct(values, 50), "s")
    counts = {k: sum(s.counts.get(k, 0) for s in cold)
              for k in ("executed", "cached", "dedup")}
    out.put("farm.executed", counts["executed"], "count")
    out.put("farm.cached", counts["cached"], "count")
    out.put("farm.dedup_share", counts["dedup"] / cold_cells, "ratio")
    for name in ("sim.events", "sim.schedules", "net.port_sends",
                 "core.enqueues", "core.drops_early", "core.ack_drops",
                 "core.syn_drops", "core.marks", "tcp.retransmits", "tcp.rtos",
                 "fluid.promotions"):
        out.put(name, 0, "count")
    out.put("fluid.byte_share", 0.0, "ratio")
    return out
