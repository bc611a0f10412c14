"""The body of the ``farm`` smoke gate (``repro smoke farm``).

Exercises the whole service loop against a throwaway farm directory:

1. start a scheduler (in-process thread, real workers, real socket);
2. two clients submit overlapping cell sets that share one config —
   the shared cell must execute **once** (cross-client dedup) and the
   second client must see it arrive with the ``[dedup]`` suffix in its
   streamed progress;
3. both jobs' fetched results must be bit-identical (``metrics ==``)
   to a local :func:`~repro.experiments.runner.run_cell` of the same
   configs;
4. re-submitting the same cells must be served entirely from the cache
   (``cached == total``, zero new executions);
5. a clean ``shutdown`` must drain, retire the workers, and remove the
   socket file.

Returns a JSON-safe report with one boolean per named check; raises
nothing — the smoke harness turns ``report["checks"]`` into verdicts.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from dataclasses import replace
from typing import Any, Dict, Optional

from repro.experiments.config import ExperimentConfig, QueueSetup
from repro.experiments.runner import run_cell
from repro.farm.client import FarmClient
from repro.farm.scheduler import FarmScheduler
from repro.tcp.endpoint import TcpVariant
from repro.telemetry.profiler import ProgressReporter
from repro.units import mb, us

__all__ = ["run_smoke"]


def _tiny(queue: QueueSetup, **kw) -> ExperimentConfig:
    """Same tiny-cell shape the test suite uses: 4 hosts, 2 MB Terasort."""
    return replace(
        ExperimentConfig(queue=queue, variant=TcpVariant.ECN),
        n_hosts=4, data_bytes=mb(2), block_bytes=mb(1), n_reducers=4, **kw
    )


def run_smoke(progress: Optional[Any] = None,
              workers: int = 2) -> Dict[str, Any]:
    """Run the gate; returns the report dict (``report["ok"]`` gates CI)."""
    say = progress or (lambda msg: None)
    # Short tempdir: AF_UNIX socket paths are length-limited.
    farm_dir = tempfile.mkdtemp(prefix="farm-smoke-")
    checks: Dict[str, bool] = {}
    report: Dict[str, Any] = {"farm_dir": farm_dir, "checks": checks}
    shared = _tiny(QueueSetup(kind="red", target_delay_s=us(100)))
    only_a = _tiny(QueueSetup(kind="droptail"))
    only_b = _tiny(QueueSetup(kind="marking", target_delay_s=us(100)))

    sched = FarmScheduler(farm_dir, workers=workers)
    thread = threading.Thread(target=sched.serve_forever, daemon=True)
    thread.start()
    t0 = time.time()
    try:
        client_a = FarmClient(sched.socket_path, client="smoke-a")
        client_b = FarmClient(sched.socket_path, client="smoke-b")
        _wait_for_socket(client_a)
        say("farm up; submitting two overlapping jobs")

        sub_a = client_a.submit([("a/plain", only_a), ("a/shared", shared)])
        sub_b = client_b.submit([("b/shared", shared), ("b/plain", only_b)])
        # Watch both jobs concurrently: progress events are streamed
        # live, not replayed, so each watcher must be attached before
        # its job's cells start completing.
        events_a: list = []
        events_b: list = []
        watchers = [
            threading.Thread(
                target=lambda ev=events_a: ev.extend(
                    client_a.watch(sub_a["id"], timeout=120.0))),
            threading.Thread(
                target=lambda ev=events_b: ev.extend(
                    client_b.watch(sub_b["id"], timeout=120.0))),
        ]
        for w in watchers:
            w.start()
        for w in watchers:
            w.join(timeout=180.0)
        checks["streamed_progress"] = (
            any(e.get("ev") == "progress" for e in events_a)
            and events_a[-1].get("ev") == "job_done"
            and events_b[-1].get("ev") == "job_done")

        # Cross-client dedup: 4 labels, 3 distinct configs -> exactly 3
        # executions, and one of the shared labels arrived as [dedup].
        stats = client_a.stats()
        outcomes = {**_labels(client_a, sub_a["id"]),
                    **_labels(client_b, sub_b["id"])}
        shared_outcomes = sorted((outcomes["a/shared"], outcomes["b/shared"]))
        checks["deduped_shared_cell"] = shared_outcomes == ["dedup",
                                                           "executed"]
        checks["three_entries_cached"] = stats["cache"]["entries"] == 3
        dedup_labels = [e["label"] for e in events_a + events_b
                        if e.get("ev") == "progress"
                        and e["label"].endswith(ProgressReporter.DEDUP_SUFFIX)]
        checks["dedup_visible_in_stream"] = len(dedup_labels) == 1
        say(f"dedup ok: {shared_outcomes} "
            f"({stats['cache']['entries']} cache entries)")

        # Farm results must be bit-identical to local runs.
        got = {**client_a.fetch(sub_a["id"]), **client_b.fetch(sub_b["id"])}
        local = {"a/plain": run_cell(only_a), "a/shared": run_cell(shared),
                 "b/plain": run_cell(only_b)}
        local["b/shared"] = local["a/shared"]
        checks["bit_identical_to_local"] = all(
            got[label].metrics == local[label].metrics for label in got)
        say("farm results bit-identical to local runs")

        # Second submission of the same configs: all served from cache.
        sub_c = client_a.submit([("c/plain", only_a), ("c/shared", shared),
                                 ("c/other", only_b)])
        checks["resubmission_cache_served"] = (
            sub_c["state"] == "done"
            and sub_c["cells"]["cached"] == sub_c["cells"]["total"] == 3)
        say("resubmission served entirely from cache")

        client_a.shutdown()
        thread.join(timeout=60.0)
        checks["clean_shutdown"] = (not thread.is_alive()
                                    and not os.path.exists(sched.socket_path))
        say("clean shutdown")
    except Exception as exc:  # the gate reports, it does not crash CI logs
        report["error"] = f"{type(exc).__name__}: {exc}"
        checks["no_exception"] = False
    finally:
        sched.stop()
        thread.join(timeout=10.0)
        shutil.rmtree(farm_dir, ignore_errors=True)

    report["wall_s"] = time.time() - t0
    report["ok"] = bool(checks) and all(checks.values())
    return report


def _labels(client: FarmClient, job_id: str) -> Dict[str, str]:
    return client.status(job_id)["labels"]


def _wait_for_socket(client: FarmClient, timeout_s: float = 10.0) -> None:
    from repro.errors import FarmError

    deadline = time.time() + timeout_s
    while True:
        try:
            client.ping()
            return
        except FarmError:
            if time.time() >= deadline:
                raise
            time.sleep(0.05)

