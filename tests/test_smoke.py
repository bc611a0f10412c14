"""Tests for the smoke-gate harness (``repro smoke``) itself.

The registered gates run minutes of pinned cells; these tests exercise
the registry, the verb aliases and the harness's verdicts on stub gates
built around one tiny cell.
"""

import itertools
import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

import repro
from repro.cli import _smoke_gate, build_parser, main
from repro.experiments.config import ExperimentConfig, QueueSetup
from repro.tcp.endpoint import TcpVariant
from repro.units import mb
from repro.validate import smoke
from repro.validate.checkers import Checker, ValidationSuite

GATE_NAMES = ["check", "mix", "stability", "fixedk", "flaws", "fluid",
              "farm", "bench", "sweep"]


def _tiny_cells(seed):
    cfg = replace(ExperimentConfig(queue=QueueSetup(kind="droptail"),
                                   variant=TcpVariant.ECN, seed=seed),
                  n_hosts=4, data_bytes=mb(2), block_bytes=mb(1),
                  n_reducers=4)
    return [("tiny", cfg)]


def _register_stub(monkeypatch, **kw):
    kw.setdefault("cells", _tiny_cells)
    monkeypatch.setitem(smoke.GATES, "stub",
                        smoke.Gate("stub", "one tiny droptail cell", **kw))


def _run_stub(tmp_path):
    path = tmp_path / "stub.json"
    rc = main(["smoke", "stub", "--quiet", "--manifest", str(path)])
    return rc, json.loads(path.read_text())


class TestRegistry:
    def test_list_names_all_nine_gates(self, capsys):
        assert main(["smoke", "--list"]) == 0
        listed = [line.split()[0]
                  for line in capsys.readouterr().out.splitlines()]
        assert listed == GATE_NAMES

    @pytest.mark.parametrize("argv, gate", [
        (["smoke", "check"], "check"),
        (["check", "--smoke"], "check"),
        (["mix", "--smoke"], "mix"),
        (["stability", "--smoke"], "stability"),
        (["fixedk", "--smoke"], "fixedk"),
        (["flaws", "--smoke"], "flaws"),
        (["fluid"], "fluid"),
        (["fluid", "--smoke"], "fluid"),
        (["farm", "--smoke"], "farm"),
        (["smoke", "bench"], "bench"),
        (["smoke", "sweep"], "sweep"),
    ])
    def test_every_spelling_resolves_to_its_gate(self, argv, gate):
        assert _smoke_gate(build_parser().parse_args(argv)) == gate

    @pytest.mark.parametrize("argv", [
        ["check"], ["mix"], ["stability"], ["fixedk"], ["flaws"],
        ["farm", "--ping"], ["bench", "--quick"], ["sweep"],
    ])
    def test_plain_verbs_run_no_gate(self, argv):
        assert _smoke_gate(build_parser().parse_args(argv)) is None

    def test_unknown_or_missing_gate_is_a_usage_error(self, capsys):
        assert main(["smoke", "nope"]) == 2
        assert "unknown gate 'nope'" in capsys.readouterr().err
        assert main(["smoke"]) == 2
        assert "name a gate" in capsys.readouterr().err

    def test_cli_import_loads_no_gate_module(self):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = ("import sys, repro.cli; print(' '.join("
                "m for m in sys.modules if m.startswith('repro')))")
        out = subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": src}).stdout.split()
        for mod in ("repro.validate.smoke", "repro.validate.checkers",
                    "repro.experiments.fidelity", "repro.farm.smoke"):
            assert mod not in out


class TestHarness:
    def test_clean_stub_passes(self, tmp_path, monkeypatch, capsys):
        _register_stub(monkeypatch)
        rc, doc = _run_stub(tmp_path)
        assert rc == 0
        assert doc["schema"] == "repro.smoke/v1" and doc["ok"] is True
        assert doc["failed"] == []
        assert [(c["name"], c["cell"]) for c in doc["checks"]] == [
            ("identical_rerun", "tiny"), ("identical_armed", "tiny"),
            ("checkers_clean", "tiny")]
        assert "smoke stub: OK" in capsys.readouterr().out

    def test_diverging_rerun_exits_1_and_names_the_check(
            self, tmp_path, monkeypatch, capsys):
        runs = itertools.count()

        class Drift:
            """A post-run analysis whose block differs on every run."""

            key = "drift"

            def analyze(self, cell, telemetry=None):
                return {"run": next(runs)}

        _register_stub(monkeypatch, blocks=("drift",),
                       analyses=lambda: [Drift()])
        rc, doc = _run_stub(tmp_path)
        assert rc == 1
        assert doc["ok"] is False
        assert doc["failed"] == ["identical_armed", "identical_rerun"]
        assert doc["cells"][0]["fingerprint"]["drift"] == {"run": 0}
        out = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert ["FAIL", "identical_rerun", "tiny"] in out

    def test_checker_violation_exits_1(self, tmp_path, monkeypatch):
        class Tripwire(Checker):
            name = "tripwire"

            def attach(self, sim, network, tracer):
                pass

            def finish(self, now):
                self._flag(now, "-", "planted violation")

        monkeypatch.setattr(smoke, "build_suite",
                            lambda config: ValidationSuite([Tripwire()]))
        _register_stub(monkeypatch)
        rc, doc = _run_stub(tmp_path)
        assert rc == 1
        assert doc["failed"] == ["checkers_clean"]
        (bad,) = [c for c in doc["checks"] if not c["ok"]]
        assert "planted violation" in bad["detail"]

    def test_raising_gate_fails_its_completed_check(self, tmp_path,
                                                    monkeypatch):
        _register_stub(monkeypatch, cells=None, checks=lambda run: [][0])
        rc, doc = _run_stub(tmp_path)
        assert rc == 1
        assert doc["failed"] == ["completed"]
        assert "IndexError" in doc["checks"][0]["detail"]

    def test_fingerprint_folds_named_blocks(self):
        from repro.experiments.runner import run_cell

        _name, cfg = _tiny_cells(42)[0]
        cell = run_cell(cfg)
        cell.manifest["extra_block"] = {"x": 1}
        fp = smoke.fingerprint(cell, blocks=("extra_block",))
        assert fp == {**smoke.fingerprint(cell), "extra_block": {"x": 1}}
