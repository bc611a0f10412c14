"""The benchmark's own checks: layer map, wrapped entry points, tracing.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import importlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layermap  # noqa: E402
from layermap import (BINDER, CALLED, LAYER_PATHS, LAYERS,  # noqa: E402
                      METHOD_SPANS, QDISC_BASE, QDISC_METHODS, SCHEDULERS)

PKG = os.path.join(ROOT, "src", "repro")


def _module_files():
    for dirpath, _dirs, files in os.walk(PKG):
        for name in files:
            if name.endswith(".py"):
                yield os.path.relpath(os.path.join(dirpath, name),
                                      PKG).replace(os.sep, "/")


def test_every_module_maps_to_exactly_one_layer():
    wrong = {rel: layermap.layers_of_path(rel) for rel in _module_files()
             if len(layermap.layers_of_path(rel)) != 1}
    assert not wrong, f"modules without exactly one layer: {wrong}"


def test_every_layer_entry_names_existing_files():
    files = set(_module_files())
    for layer, entries in LAYER_PATHS.items():
        assert layer in LAYERS
        for entry in entries:
            assert (entry in files if not entry.endswith("/")
                    else any(f.startswith(entry) for f in files)), entry


def test_layer_of_module_follows_the_map():
    import repro.experiments.runner  # noqa: F401
    import repro.sim.engine  # noqa: F401
    import repro.sim.fluid  # noqa: F401

    assert layermap.layer_of_module("repro.sim.engine") == "sim"
    assert layermap.layer_of_module("repro.sim.fluid") == "fluid"
    assert layermap.layer_of_module(
        "repro.experiments.runner") == "experiments"
    assert layermap.layer_of_module("json") == "other"


def _resolve(module, path):
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_wrapped_entry_point_exists():
    for module, cls, method, layer in METHOD_SPANS:
        assert layer in LAYERS
        assert method in vars(_resolve(module, cls)), f"{cls}.{method}"
    engine = _resolve("repro.sim.engine", "Simulator")
    for name in SCHEDULERS:
        assert name in vars(engine), name
    assert BINDER[2] in vars(_resolve(BINDER[0], BINDER[1]))
    base = _resolve(*QDISC_BASE)
    for name in QDISC_METHODS:
        assert name in vars(base), name
    for module, path, layer in CALLED:
        assert layer in LAYERS
        assert callable(_resolve(module, path)), path


def test_declared_metrics_match_benchmark_json():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    from cells import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_tracing_reproduces_results_and_accounts_for_wall_time():
    from dataclasses import replace

    from repro.experiments import run_cell
    from repro.experiments.bulkcell import BulkConfig

    from cells import farm_cell, fingerprint
    from spans import SpanTracer, instrument

    configs = [farm_cell(3, 1)[1],
               replace(BulkConfig(fidelity="hybrid"), flow_bytes=2_000_000)]
    plain = [fingerprint(run_cell(c)) for c in configs]
    tracer = SpanTracer()
    with instrument(tracer):
        tracer.begin()
        traced = [fingerprint(tracer.call("experiments", "run_cell",
                                          run_cell, c)) for c in configs]
        tracer.end()
    assert traced == plain
    assert tracer.accounting_error() < 1e-6
    self_s = tracer.layer_self()
    assert abs(sum(self_s.values()) - tracer.wall_s) < 1e-6
    for layer in ("sim", "net", "core", "tcp", "fluid", "mapreduce", "stats"):
        assert self_s[layer] > 0, layer
    # Leaving the block restores the original methods.
    from repro.net.port import Port

    assert Port.send.__qualname__ == "Port.send"
