"""Layers of ``src/repro`` and the public entry points the traced run wraps.

Every module file under ``src/repro`` belongs to exactly one layer
(``test_perfbench.py`` enforces it). The nine named layers are the ones
the benchmark reports; ``other`` holds the modules no workload spends
measurable time in (CLI, analysis, plotting, telemetry, validation,
traffic generators) and, in the report, the untraced residual.
"""

from __future__ import annotations

import functools
import os
import sys
from typing import Dict, List, Tuple

#: Reported layers, in report order.
LAYERS: Tuple[str, ...] = ("sim", "fluid", "net", "core", "tcp", "mapreduce",
                           "stats", "experiments", "farm", "other")

#: Files (relative to ``src/repro``) of each layer. An entry ending in
#: "/" covers a whole package; ``sim/`` is listed file by file because
#: ``sim/fluid.py`` is its own layer.
LAYER_PATHS: Dict[str, Tuple[str, ...]] = {
    "sim": ("sim/__init__.py", "sim/engine.py", "sim/process.py",
            "sim/rng.py", "sim/trace.py"),
    "fluid": ("sim/fluid.py",),
    "net": ("net/",),
    "core": ("core/",),
    "tcp": ("tcp/",),
    "mapreduce": ("mapreduce/",),
    "stats": ("stats/",),
    "experiments": ("experiments/",),
    "farm": ("farm/",),
    "other": ("__init__.py", "__main__.py", "cli.py", "errors.py", "units.py",
              "analysis/", "perf/", "plotting/", "telemetry/", "validate/",
              "workloads/"),
}

#: Methods wrapped in a span of their layer: (module, class, method, layer).
METHOD_SPANS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sim.engine", "Simulator", "run", "sim"),
    ("repro.net.port", "Port", "send", "net"),
    ("repro.net.switch", "Switch", "receive", "net"),
    ("repro.net.host", "Host", "receive", "net"),
    ("repro.net.host", "Host", "send", "net"),
    ("repro.sim.fluid", "FluidManager", "on_ack", "fluid"),
    ("repro.sim.fluid", "FluidManager", "on_congestion", "fluid"),
    ("repro.stats.collect", "LatencyCollector", "hook", "stats"),
    ("repro.mapreduce.engine", "MapReduceEngine", "submit", "mapreduce"),
)

#: Scheduling methods: the call is a ``sim`` span, and the callback it is
#: passed is wrapped in a dispatch span of the callback's own layer.
SCHEDULERS: Tuple[str, ...] = ("schedule", "schedule_now", "schedule_at")

#: ``Host.bind``'s receiver is wrapped in a span of the receiver's layer.
BINDER: Tuple[str, str, str] = ("repro.net.host", "Host", "bind")

#: ``enqueue``/``dequeue`` are wrapped on this class and every subclass
#: that defines them.
QDISC_BASE: Tuple[str, str] = ("repro.core.qdisc", "QueueDisc")
QDISC_METHODS: Tuple[str, ...] = ("enqueue", "dequeue")

#: Entry points the benchmark calls itself; in a traced run, ``run_cell``
#: and the client threads' ``FarmClient`` calls get spans of their own.
CALLED: Tuple[Tuple[str, str, str], ...] = (
    ("repro.experiments.runner", "run_cell", "experiments"),
    ("repro.experiments.cache", "ResultCache.put", "experiments"),
    ("repro.experiments.cache", "ResultCache.get", "experiments"),
    ("repro.farm.client", "FarmClient.ping", "farm"),
    ("repro.farm.client", "FarmClient.submit", "farm"),
    ("repro.farm.client", "FarmClient.watch", "farm"),
    ("repro.farm.client", "FarmClient.fetch", "farm"),
    ("repro.farm.client", "FarmClient.shutdown", "farm"),
)


def layers_of_path(rel: str) -> List[str]:
    """Every layer whose entries cover ``rel`` (a path under src/repro)."""
    return [layer for layer, entries in LAYER_PATHS.items()
            if any(rel == e or (e.endswith("/") and rel.startswith(e))
                   for e in entries)]


@functools.lru_cache(maxsize=None)
def layer_of_module(name: str) -> str:
    """Layer of an imported module; modules outside ``repro`` are ``other``."""
    path = getattr(sys.modules.get(name), "__file__", None)
    if name.split(".")[0] != "repro" or not path:
        return "other"
    pkg_root = os.path.dirname(sys.modules["repro"].__file__)
    rel = os.path.relpath(path, pkg_root).replace(os.sep, "/")
    found = layers_of_path(rel)
    if len(found) != 1:
        raise LookupError(f"module {name} ({rel}) maps to layers {found}")
    return found[0]
