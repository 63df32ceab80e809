"""Unit tests for the CLI."""

import os

import pytest

from repro.cli import build_parser, main
from repro.experiments import ALL_EXPERIMENTS


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_parses(self):
        args = build_parser().parse_args(["run", "fig7", "--scale", "0.5"])
        assert args.experiment == "fig7"
        assert args.scale == 0.5


class TestMain:
    def test_list_prints_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert set(out) == set(ALL_EXPERIMENTS)

    def test_unknown_experiment_errors(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_run_small_experiment(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "finished in" in out

    def test_scale_flag_sets_env(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert main(["run", "table1", "--scale", "0.02"]) == 0
        assert os.environ["REPRO_SCALE"] == "0.02"


class TestObservabilityVerbs:
    def test_trace_prints_span_trees(self, capsys):
        assert main(["trace", "fig7", "--scale", "0.1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        # Nested tree: a route span with per-hop child events.
        assert "route" in out
        assert "└─" in out or "├─" in out
        assert "hop " in out or "walk " in out

    def test_stats_renders_tables_and_check_passes(self, capsys):
        assert main(["stats", "fig7", "--scale", "0.1", "--check"]) == 0
        out = capsys.readouterr().out
        assert "== counters ==" in out
        assert "net.sent.publish" in out
        assert "== timers (wall / cpu, ms) ==" in out
        assert "stats --check OK" in out

    def test_stats_out_writes_snapshot(self, capsys, tmp_path):
        out_dir = tmp_path / "obs"
        assert main(["stats", "--scale", "0.1", "--out", str(out_dir)]) == 0
        assert (out_dir / "metrics.json").exists()
        assert (out_dir / "metrics.csv").exists()

    def test_bench_writes_and_compares(self, capsys, tmp_path):
        snap = tmp_path / "BENCH_test.json"
        assert main(["bench", "--scale", "0.02", "--repeats", "1",
                     "--out", str(snap)]) == 0
        assert snap.exists()
        out = capsys.readouterr().out
        assert "tornado_route" in out
        # Comparing a run against an impossibly fast baseline must fail.
        import json

        doctored = json.loads(snap.read_text())
        for kernel in doctored["kernels"].values():
            kernel["best_us"] = 1e-6
        fast = tmp_path / "BENCH_fast.json"
        fast.write_text(json.dumps(doctored))
        assert main(["bench", "--scale", "0.02", "--repeats", "1",
                     "--against", str(fast)]) == 1
        assert "regression" in capsys.readouterr().out


class TestFaultsVerb:
    def test_parses_with_defaults(self):
        args = build_parser().parse_args(["faults"])
        assert args.scenario == "poisson"
        assert args.check is None

    def test_batch_kill_smoke(self, capsys):
        assert (
            main(
                [
                    "faults",
                    "--scenario", "batch-kill",
                    "--nodes", "80",
                    "--items", "200",
                    "--queries", "40",
                    "--fraction", "0.3",
                    "--horizon", "10",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "availability" in out
        assert "incremental ticks" in out

    def test_check_failure_returns_nonzero(self, capsys):
        rc = main(
            [
                "faults",
                "--scenario", "batch-kill",
                "--nodes", "60",
                "--items", "150",
                "--queries", "30",
                "--fraction", "0.9",
                "--no-retry",
                "--full-scan",
                "--check", "1.01",  # unsatisfiable threshold
            ]
        )
        assert rc == 1
        assert "FAILED" in capsys.readouterr().err


class TestChaosVerb:
    def test_parses_with_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.drop == 0.05
        assert args.min_avail == 0.85
        assert not args.check

    def test_smoke_with_check(self, capsys):
        assert (
            main(
                [
                    "chaos",
                    "--nodes", "80",
                    "--items", "300",
                    "--queries", "60",
                    "--horizon", "15",
                    "--quiesce", "10",
                    "--seed", "3",
                    "--check",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "invariant reachability: ok" in out
        assert "invariant accounting: ok" in out
        assert "chaos --check OK" in out

    def test_check_failure_returns_nonzero(self, capsys):
        rc = main(
            [
                "chaos",
                "--nodes", "60",
                "--items", "150",
                "--queries", "30",
                "--horizon", "10",
                "--quiesce", "5",
                "--check",
                "--min-avail", "1.01",  # unsatisfiable threshold
            ]
        )
        assert rc == 1
        assert "chaos --check FAILED" in capsys.readouterr().err

    def test_new_scenarios_reachable_from_faults_verb(self, capsys):
        assert (
            main(
                [
                    "faults",
                    "--scenario", "partition",
                    "--nodes", "60",
                    "--items", "150",
                    "--queries", "30",
                    "--horizon", "10",
                ]
            )
            == 0
        )
        assert "availability" in capsys.readouterr().out


class TestOverloadVerb:
    def test_parses_with_defaults(self):
        args = build_parser().parse_args(["overload"])
        assert args.nodes == 400
        assert args.skew == 1.2
        assert args.service_rate is None
        assert not args.check

    def test_storm_smoke(self, capsys):
        assert (
            main(
                [
                    "overload",
                    "--nodes", "120",
                    "--items", "2000",
                    "--queries", "30",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "max inbox depth" in out
        assert "shed rate" in out

    def test_check_pass_and_fail(self, capsys):
        base = [
            "overload",
            "--nodes", "120",
            "--items", "2000",
            "--queries", "30",
            "--check",
        ]
        assert main(base + ["--max-shed", "1.0", "--min-avail", "0.0"]) == 0
        assert "overload --check OK" in capsys.readouterr().out
        rc = main(base + ["--min-avail", "1.01"])  # unsatisfiable threshold
        assert rc == 1
        assert "FAILED" in capsys.readouterr().err


class TestBuildVerb:
    def test_parses_with_defaults(self):
        args = build_parser().parse_args(["build"])
        assert args.items == 4000
        assert args.chunk_rows == 512
        assert not args.check

    def test_build_smoke_and_check(self, capsys):
        base = [
            "build",
            "--items", "600",
            "--nodes", "80",
            "--chunk-rows", "97",
        ]
        assert main(base + ["--check"]) == 0
        out = capsys.readouterr().out
        assert "bit-identical: True" in out
        assert "placements True" in out
        assert "build --check OK" in out

    def test_check_failure_returns_nonzero(self, capsys):
        rc = main(
            [
                "build",
                "--items", "600",
                "--nodes", "80",
                "--check",
                "--min-speedup", "1000",  # unsatisfiable threshold
            ]
        )
        assert rc == 1
        assert "FAILED" in capsys.readouterr().err


class TestLshVerb:
    ARGS = [
        "lsh", "--items", "400", "--nodes", "40", "--queries", "8",
        "--bands", "3", "--band-bits", "5", "--check",
    ]

    def test_parses_with_defaults(self):
        args = build_parser().parse_args(["lsh"])
        assert (args.bands, args.probe_width, args.k) == (4, 2, 10)
        assert args.check is False

    def test_small_check_passes(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "multi-probe scalar==batch: items True, messages True" in out
        assert "lsh --check OK" in out

    def test_check_fails_on_an_overfull_result(self, capsys, monkeypatch):
        """The merge must cut to k; a result holding k + 1 discoveries
        fails the gate even when scalar and batch agree on it."""
        import repro.lsh.probe as probe

        def overfull(fn):
            def wrapper(system, origin, query, amount, **kwargs):
                return fn(system, origin, query, amount + 1, **kwargs)
            return wrapper

        monkeypatch.setattr(
            probe, "multi_probe_retrieve", overfull(probe.multi_probe_retrieve)
        )
        monkeypatch.setattr(
            probe, "multi_probe_retrieve_many", overfull(probe.multi_probe_retrieve_many)
        )
        assert main(self.ARGS) == 1
        captured = capsys.readouterr()
        assert "items True, messages True" in captured.out
        assert "more than k=10 discoveries" in captured.err


class TestBenchAgainstKernelSets:
    """``bench --against`` must not pass a kernel it never timed."""

    @pytest.fixture
    def two_kernels(self, monkeypatch):
        # Two trivial stand-ins under real kernel names: the gate logic
        # is what is under test, not the kernels.
        from repro.obs import bench

        monkeypatch.setattr(
            bench,
            "build_kernels",
            lambda scale=1.0: {
                "absolute_angles": lambda: 1,
                "corpus_to_keys": lambda: 2,
            },
        )

    @staticmethod
    def _baseline(tmp_path, names):
        import json

        slow = {"best_us": 1e12, "mean_us": 1e12, "loops": 1, "repeats": 1}
        path = tmp_path / "BENCH_base.json"
        path.write_text(json.dumps({"meta": {}, "kernels": {n: slow for n in names}}))
        return str(path)

    def test_matching_sets_pass(self, two_kernels, tmp_path):
        base = self._baseline(tmp_path, ["absolute_angles", "corpus_to_keys"])
        assert main(["bench", "--repeats", "1", "--against", base]) == 0

    def test_kernel_missing_from_full_run_fails(self, two_kernels, tmp_path, capsys):
        base = self._baseline(
            tmp_path, ["absolute_angles", "corpus_to_keys", "angles_chunked_pool"]
        )
        assert main(["bench", "--repeats", "1", "--against", base]) == 1
        err = capsys.readouterr().err
        assert "kernel sets differ" in err
        assert "angles_chunked_pool" in err

    def test_kernel_missing_from_baseline_fails(self, two_kernels, tmp_path, capsys):
        base = self._baseline(tmp_path, ["absolute_angles"])
        assert main(["bench", "--repeats", "1", "--against", base]) == 1
        assert "only in this run: corpus_to_keys" in capsys.readouterr().err

    def test_kernels_subset_is_not_a_false_alarm(self, two_kernels, tmp_path):
        base = self._baseline(tmp_path, ["absolute_angles", "corpus_to_keys"])
        rc = main(
            ["bench", "--repeats", "1", "--kernels", "absolute_angles", "--against", base]
        )
        assert rc == 0


class TestScaleVerbRemoved:
    def test_scale_is_not_a_verb_or_an_experiment(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scale"])
        assert exc.value.code == 2
        assert "invalid choice: 'scale'" in capsys.readouterr().err
        assert main(["list"]) == 0
        assert "scale" not in capsys.readouterr().out.splitlines()
