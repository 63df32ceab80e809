"""Unit tests for the CLI."""

import math
import os
from dataclasses import replace

import pytest

from repro.cli import build_parser, main
from repro.experiments import ALL_EXPERIMENTS
from repro.gates import GATES, Pred, failures, run_gate


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
        assert main(["stats", "fig7", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "== counters ==" in out
        assert "net.sent.publish" in out
        assert "== timers (wall / cpu, ms) ==" in out
        # The stats row runs this session at its CI size (scale 0.1).
        assert main(["check", "stats"]) == 0
        out = capsys.readouterr().out
        assert "net.sent.publish: " in out
        assert "stats OK in" in out

    def test_stats_out_writes_snapshot(self, capsys, tmp_path):
        out_dir = tmp_path / "obs"
        assert main(["stats", "--scale", "0.1", "--out", str(out_dir)]) == 0
        assert (out_dir / "metrics.json").exists()
        assert (out_dir / "metrics.csv").exists()


#: Each smoke row at a size that runs in well under a second.
SMALL = {
    "stats": dict(scale=0.1),
    "faults": dict(nodes=80, items=200, queries=40, fraction=0.3, horizon=10.0),
    "chaos": dict(n_nodes=80, items=300, queries=60, horizon=15.0, quiesce=10.0, seed=3),
    "overload": dict(n_nodes=120, items=2000, queries=30),
    "build": dict(items=600, nodes=80, chunk_rows=97),
    "qps": dict(items=2000, nodes=120, queries=200, window=64),
    "lsh": dict(items=400, nodes=40, queries=8, bands=3, band_bits=5),
}


def _at_and_past(pred):
    """Facts at the predicate's bound and just past it, as (passing,
    failing); a strict bound passes one step inside and fails on it."""
    if isinstance(pred.rhs, str):
        base, bound = {pred.rhs: 10.0}, 10.0
    else:
        base, bound = {}, pred.rhs
    if isinstance(bound, bool):
        return {**base, pred.fact: bound}, {**base, pred.fact: not bound}
    if pred.op == "==":
        return {**base, pred.fact: bound}, {**base, pred.fact: bound + 1}
    inward = -math.inf if pred.op in (">", ">=") else math.inf
    inside = math.nextafter(bound, -inward)
    past = math.nextafter(bound, inward)
    if pred.op in (">=", "<="):
        return {**base, pred.fact: bound}, {**base, pred.fact: past}
    return {**base, pred.fact: inside}, {**base, pred.fact: bound}


class TestGateTable:
    """The table's predicates and bounds, with no simulation."""

    def test_smoke_and_figure_rows(self):
        assert list(GATES)[:7] == list(SMALL)
        assert len(GATES) == 32
        assert all(g.derive is None for g in list(GATES.values())[:7])

    @pytest.mark.parametrize("gate_id", list(GATES))
    def test_each_predicate_fails_just_past_its_bound(self, gate_id):
        gate = GATES[gate_id]
        assert gate.predicates
        for pred in gate.predicates:
            alone = replace(gate, predicates=(pred,), max_seconds=None)
            passing, failing = _at_and_past(pred)
            assert failures(alone, passing) == [], pred
            assert failures(alone, failing) == [pred.label], pred

    @pytest.mark.parametrize("gate_id", [g for g in GATES if GATES[g].max_seconds])
    def test_wall_time_bound(self, gate_id):
        gate = replace(GATES[gate_id], predicates=())
        assert failures(gate, {}, elapsed=gate.max_seconds) == []
        late = math.nextafter(gate.max_seconds, math.inf)
        assert failures(gate, {}, elapsed=late) == ["wall time <= 120s"]

    def test_undefined_fact_leaves_its_predicate_unchecked(self):
        fit = replace(GATES["fig10b"], predicates=(Pred("R²", ">", 0.8),))
        assert failures(fit, {"R²": None}) == []


def _small(monkeypatch, gate_id, *predicates):
    """Point ``check <gate_id>`` at the row's small size; ``predicates``
    replace the row's own. Without them the speedup floors go: they are
    host time, calibrated at the row's own size."""
    gate = GATES[gate_id]
    preds = predicates or tuple(p for p in gate.predicates if p.fact != "speedup")
    small = replace(gate, knobs={**gate.knobs, **SMALL[gate_id]}, predicates=preds)
    monkeypatch.setitem(GATES, gate_id, small)
    return small


class TestCheckVerb:
    def test_unknown_gate_exits_2(self, capsys):
        assert main(["check", "nope"]) == 2
        assert "unknown gate(s): nope" in capsys.readouterr().err

    def test_all_runs_every_row(self, capsys, monkeypatch):
        import repro.gates as gates

        seen = []

        def fake_run(gate):
            seen.append(gate.id)
            return {"fact": 1.0}, (), 0.0

        monkeypatch.setattr(gates, "run_gate", fake_run)
        monkeypatch.setattr(gates, "failures", lambda gate, facts, elapsed: [])
        assert main(["check", "all"]) == 0
        out = capsys.readouterr().out
        assert seen == list(GATES)
        assert f"check: {len(GATES)}/{len(GATES)} rows OK" in out


class TestFaultsVerb:
    """The ``faults`` row: batch kill under repair and retry."""

    def test_batch_kill_smoke(self, capsys, monkeypatch):
        _small(monkeypatch, "faults")
        assert main(["check", "faults"]) == 0
        out = capsys.readouterr().out
        assert "availability: " in out
        assert "repair ticks: " in out
        assert "faults OK in" in out

    def test_check_failure_returns_nonzero(self, capsys, monkeypatch):
        _small(monkeypatch, "faults", Pred("availability", ">=", 1.01))
        assert main(["check", "faults"]) == 1
        assert "faults FAILED" in capsys.readouterr().err


class TestChaosVerb:
    """The ``chaos`` row: the four invariants after a fault mix."""

    def test_smoke_with_check(self, capsys, monkeypatch):
        _small(monkeypatch, "chaos")
        assert main(["check", "chaos"]) == 0
        out = capsys.readouterr().out
        assert "invariant reachability holds: True" in out
        assert "invariant accounting holds: True" in out
        assert "chaos OK in" in out

    def test_check_failure_returns_nonzero(self, capsys, monkeypatch):
        _small(monkeypatch, "chaos", Pred("availability", ">=", 1.01))
        assert main(["check", "chaos"]) == 1
        assert "chaos FAILED" in capsys.readouterr().err


class TestOverloadVerb:
    """The ``overload`` row: admission control under a Zipf storm."""

    def test_storm_smoke(self, monkeypatch):
        gate = _small(monkeypatch, "overload")
        facts, _, _ = run_gate(gate)
        assert facts["protected max inbox"] <= facts["queue cap"]
        assert "shed rate" in facts
        assert failures(gate, facts) == []

    def test_check_pass_and_fail(self, capsys, monkeypatch):
        _small(monkeypatch, "overload")
        assert main(["check", "overload"]) == 0
        assert "overload OK in" in capsys.readouterr().out
        _small(monkeypatch, "overload", Pred("availability", ">=", 1.01))
        assert main(["check", "overload"]) == 1
        assert "FAILED" in capsys.readouterr().err


class TestBuildVerb:
    """The ``build`` row: chunked ≡ whole keys, corpus publish ≡ batches
    of one."""

    def test_build_smoke_and_check(self, capsys, monkeypatch):
        _small(monkeypatch, "build")
        assert main(["check", "build"]) == 0
        out = capsys.readouterr().out
        assert "chunked keys bit-identical: True" in out
        assert "placements match batches of one: True" in out
        assert "build OK in" in out

    def test_check_failure_returns_nonzero(self, capsys, monkeypatch):
        _small(monkeypatch, "build", Pred("speedup", ">=", 1000))
        assert main(["check", "build"]) == 1
        assert "speedup >= 1000" in capsys.readouterr().err


class TestQpsRow:
    """The ``qps`` row: windows ≡ query by query."""

    def test_small_run_matches_query_by_query(self, monkeypatch):
        gate = _small(monkeypatch, "qps")
        facts, _, _ = run_gate(gate)
        assert facts["batch found"] == facts["sequential found"] > 0
        assert facts["batch messages"] == facts["sequential messages"] > 0
        assert failures(gate, facts) == []


class TestLshVerb:
    """The ``lsh`` row: scalar ≡ batch multi-probe, at most k each."""

    def test_small_check_passes(self, capsys, monkeypatch):
        _small(monkeypatch, "lsh")
        assert main(["check", "lsh"]) == 0
        out = capsys.readouterr().out
        assert "scalar == batch items: True" in out
        assert "scalar == batch messages: True" in out
        assert "lsh OK in" in out

    def test_check_fails_on_an_overfull_result(self, capsys, monkeypatch):
        """The merge must cut to k; a result holding k + 1 discoveries
        fails the row even when scalar and batch agree on it."""
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
        _small(monkeypatch, "lsh")
        assert main(["check", "lsh"]) == 1
        captured = capsys.readouterr()
        assert "scalar == batch items: True" in captured.out
        assert "scalar == batch messages: True" in captured.out
        assert "lsh FAILED" in captured.err
        assert "more than k" in captured.err


class TestGateVerbsRemoved:
    """Gates run only as ``check`` rows."""

    @pytest.mark.parametrize("verb", ["faults", "chaos", "overload", "build", "qps", "lsh"])
    def test_verb_is_gone(self, verb, capsys):
        with pytest.raises(SystemExit) as exc:
            main([verb])
        assert exc.value.code == 2
        assert f"invalid choice: '{verb}'" in capsys.readouterr().err

    def test_stats_has_no_check_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stats", "--check"])
        assert exc.value.code == 2


class TestScaleVerbRemoved:
    def test_scale_is_not_a_verb_or_an_experiment(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scale"])
        assert exc.value.code == 2
        assert "invalid choice: 'scale'" in capsys.readouterr().err
        assert main(["list"]) == 0
        assert "scale" not in capsys.readouterr().out.splitlines()


class TestBenchVerbRemoved:
    """Host-time benchmarking lives in ``bench/run.py`` alone."""

    def test_bench_is_not_a_verb_or_an_experiment(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err
        assert main(["list"]) == 0
        assert "bench" not in capsys.readouterr().out.splitlines()
