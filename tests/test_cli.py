"""Tests for the CLI (fast paths only; sweeps are covered by benchmarks)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_tables_parses(self):
        args = build_parser().parse_args(["tables"])
        assert args.command == "tables"

    def test_fig2_deep_flag(self):
        args = build_parser().parse_args(["fig2", "--deep", "--scale", "0.5"])
        assert args.deep and args.scale == 0.5

    def test_cell_options(self):
        args = build_parser().parse_args([
            "cell", "--queue", "marking", "--variant", "dctcp",
            "--target-delay-us", "120",
        ])
        assert args.queue == "marking"
        assert args.variant == "dctcp"
        assert args.target_delay_us == 120.0

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure99"])

    def test_sweep_options_parse(self):
        args = build_parser().parse_args([
            "sweep", "--deep", "--jobs", "4", "--cache-dir", "/tmp/c",
            "--resume", "--limit", "3", "--manifest", "m.json",
        ])
        assert args.command == "sweep"
        assert args.deep and args.jobs == 4 and args.resume
        assert args.cache_dir == "/tmp/c"
        assert args.limit == 3 and args.manifest == "m.json"

    def test_fig_jobs_flag_parses(self):
        args = build_parser().parse_args(["fig3", "--jobs", "2"])
        assert args.jobs == 2


class TestSweepErrors:
    def test_resume_requires_cache_dir(self, capsys):
        assert main(["sweep", "--resume"]) == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_jobs_must_be_positive(self, capsys):
        assert main(["sweep", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_limit_must_be_positive(self, capsys):
        assert main(["sweep", "--limit", "0"]) == 2
        assert "--limit" in capsys.readouterr().err

    def test_fig_jobs_must_be_positive(self, capsys):
        assert main(["fig2", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_cache_dir_collision_with_file(self, tmp_path, capsys):
        f = tmp_path / "a-file"
        f.write_text("x")
        rc = main(["sweep", "--limit", "1", "--cache-dir", str(f)])
        assert rc == 2
        assert "not a directory" in capsys.readouterr().err


class TestSweepRuns:
    def test_sweep_limit_jobs_and_resume(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        manifest = tmp_path / "sweep.json"
        base = ["sweep", "--limit", "2", "--jobs", "2",
                "--scale", "0.03125", "--quiet",
                "--cache-dir", cache_dir, "--manifest", str(manifest)]
        assert main(base) == 0
        out = capsys.readouterr().out
        assert "2 executed, 0 cached" in out

        import json

        doc = json.loads(manifest.read_text())
        assert doc["kind"] == "sweep"
        assert doc["jobs"] == 2
        assert len(doc["cells"]) == 2
        assert len(doc["executed"]) == 2 and doc["cached"] == []

        # Immediate re-run with --resume executes zero cells.
        assert main(base + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "0 executed, 2 cached" in out


class TestCommands:
    def test_tables_output(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "TABLE I" in out
        assert "TABLE II" in out
        assert "ECN-Echo flag" in out

    def test_cell_droptail_tiny(self, capsys):
        rc = main(["cell", "--queue", "droptail", "--variant", "newreno",
                   "--scale", "0.03125"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "runtime" in out
        assert "tput/node" in out

    def test_cell_marking_tiny(self, capsys):
        rc = main(["cell", "--queue", "marking", "--variant", "dctcp",
                   "--target-delay-us", "100", "--scale", "0.03125"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "marking" in out


class TestCacheVerb:
    @staticmethod
    def _seed(tmp_path, n=2):
        """A cache directory with ``n`` synthetic 2h-old entries."""
        import json
        import os
        import time

        from repro.experiments.cache import CACHE_SCHEMA, ResultCache

        cache_dir = str(tmp_path / "cache")
        ResultCache(cache_dir)  # creates the directory
        old = time.time() - 7200
        for i in range(n):
            key = f"{i:064x}"
            path = os.path.join(cache_dir, key + ".json")
            with open(path, "w") as fh:
                json.dump({"schema": CACHE_SCHEMA, "key": key,
                           "label": f"cell-{i}"}, fh)
            os.utime(path, (old, old))
        return cache_dir

    def test_prune_dry_run_counts_entries_once(self, tmp_path, capsys):
        """Regression: with --dry-run nothing is deleted, so the doomed
        entries must not be double-counted in the 'X of N' total."""
        cache_dir = self._seed(tmp_path, 2)
        assert main(["cache", "--cache-dir", cache_dir,
                     "--prune-age", "1", "--dry-run"]) == 0
        assert "would prune 2 of 2 entries" in capsys.readouterr().out
        assert main(["cache", "--cache-dir", cache_dir,
                     "--prune-age", "1"]) == 0
        assert "pruned 2 of 2 entries" in capsys.readouterr().out


class TestTelemetryVerbs:
    def test_trace_parses_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.kinds == "drop,mark,deliver"
        assert args.out == "trace.jsonl"
        assert args.queue_interval_us is None

    def test_cell_json_stdout(self, capsys):
        import json

        rc = main(["cell", "--json", "--scale", "0.03125"])
        assert rc == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["schema"] == "repro.run_manifest/v1"
        assert manifest["config"]["queue"]["kind"] == "red"
        assert manifest["timings"]["events"] > 0

    def test_cell_json_to_file(self, tmp_path, capsys):
        import json

        path = tmp_path / "manifest.json"
        rc = main(["cell", "--json", str(path), "--scale", "0.03125"])
        assert rc == 0
        capsys.readouterr()
        with open(path) as fh:
            assert json.load(fh)["kind"] == "cell"

    def test_profile_text(self, capsys):
        rc = main(["profile", "--scale", "0.03125"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "events/sec" in out
        assert "heap high-water" in out
        assert "hottest callback categories" in out

    def test_profile_json(self, capsys):
        import json

        rc = main(["profile", "--scale", "0.03125", "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["events"] > 0
        assert report["heap_high_water"] > 0
        assert report["categories"]

    def test_trace_writes_jsonl(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.jsonl"
        rc = main(["trace", "--scale", "0.03125",
                   "--target-delay-us", "50", "--kinds", "drop,mark,deliver",
                   "--out", str(path)])
        assert rc == 0
        capsys.readouterr()
        kinds = set()
        with open(path) as fh:
            for line in fh:
                row = json.loads(line)
                assert {"t", "kind", "where"} <= set(row)
                kinds.add(row["kind"])
        assert kinds == {"drop", "mark", "deliver"}

    def test_trace_empty_kinds_rejected(self, capsys):
        rc = main(["trace", "--kinds", " , "])
        assert rc == 2
        assert "at least one event kind" in capsys.readouterr().err


class TestBenchBaselineErrors:
    """A broken baseline artifact is exit 3 — distinct from usage (2)
    and genuine regressions (1)."""

    def test_missing_baseline_exit_3(self, tmp_path, capsys):
        rc = main(["bench", "--quick",
                   "--baseline", str(tmp_path / "absent.json")])
        assert rc == 3
        assert "cannot read baseline" in capsys.readouterr().err

    def test_corrupt_baseline_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{this is not json")
        rc = main(["bench", "--quick", "--baseline", str(bad)])
        assert rc == 3
        assert "not valid JSON" in capsys.readouterr().err

    def test_negative_tolerance_still_usage_error(self, capsys):
        rc = main(["bench", "--tolerance", "-0.5"])
        assert rc == 2
        assert "--tolerance" in capsys.readouterr().err


class TestCheckVerb:
    def test_check_parses_defaults(self):
        args = build_parser().parse_args(["check"])
        assert args.command == "check"
        assert not args.smoke
        assert args.fuzz is None and args.seed == 42
        assert args.checkers == "conservation,queues,tcp,engine"

    def test_unknown_checker_rejected(self, capsys):
        assert main(["check", "--checkers", "conservation,typo"]) == 2
        err = capsys.readouterr().err
        assert "unknown checker" in err and "typo" in err

    def test_empty_checkers_rejected(self, capsys):
        assert main(["check", "--checkers", " , "]) == 2
        assert "at least one checker" in capsys.readouterr().err

    def test_negative_fuzz_rejected(self, capsys):
        assert main(["check", "--fuzz", "-1"]) == 2
        assert "--fuzz" in capsys.readouterr().err

    def test_nonpositive_scale_rejected(self, capsys):
        assert main(["check", "--scale", "0"]) == 2
        assert "--scale" in capsys.readouterr().err

    def test_smoke_json_summary(self, tmp_path, capsys):
        import json

        # `check --smoke` is the check smoke gate; --json names its
        # manifest. The gate pins its fuzz count (10).
        path = tmp_path / "check.json"
        rc = main(["check", "--smoke", "--quiet", "--json", str(path)])
        assert rc == 0
        capsys.readouterr()
        doc = json.loads(path.read_text())
        assert doc["ok"] is True
        assert doc["checkers"] == ["conservation", "queues", "tcp", "engine"]
        labels = {c["label"] for c in doc["cells"]}
        assert len(labels) == 5  # the CI subset
        verdicts = {(c["name"], c["cell"]): c["ok"] for c in doc["checks"]}
        assert all(verdicts["checkers_clean", c["name"]]
                   and verdicts["identical_armed", c["name"]]
                   for c in doc["cells"])
        assert doc["fuzz"]["scenarios_run"] == 10
        assert doc["fuzz"]["ok"] is True


class TestFixedKVerb:
    def test_parses_defaults(self):
        args = build_parser().parse_args(["fixedk"])
        assert args.command == "fixedk"
        assert not args.smoke
        assert args.svg == "fixedk_regime"

    def test_parses_axes_and_sweep_options(self):
        args = build_parser().parse_args([
            "fixedk", "--k-values", "8,32", "--loads", "0.4,0.8",
            "--fanouts", "4", "--jobs", "2", "--cache-dir", "/tmp/c",
            "--resume", "--limit", "3", "--manifest", "m.json",
        ])
        assert args.k_values == "8,32"
        assert args.loads == "0.4,0.8"
        assert args.fanouts == "4"
        assert args.jobs == 2 and args.resume and args.limit == 3

    def test_jobs_must_be_positive(self, capsys):
        assert main(["fixedk", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_resume_requires_cache_dir(self, capsys):
        assert main(["fixedk", "--resume"]) == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_bad_axis_values_rejected(self, capsys):
        assert main(["fixedk", "--k-values", "8,banana"]) == 2
        assert "--k-values" in capsys.readouterr().err

    def test_invalid_grid_cell_rejected(self, capsys):
        # fanout 99 exceeds the default fabric's remote-host pool.
        assert main(["fixedk", "--fanouts", "99"]) == 2
        assert "fanout" in capsys.readouterr().err
