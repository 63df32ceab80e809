"""The benchmark in ``--quick`` mode: every metric named, simulated numbers
exact, layers attributed, wrappers gone, BENCHMARK.json in step with the code."""

import json
import os

import pytest

from bench import compare, tracing
from bench.run import END_TO_END_UNITS, main, run_workload
from bench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SEED = 19980724


@pytest.fixture(scope="module")
def untraced():
    return {n: run_workload(n, SEED, 0.0, False, True) for n in WORKLOADS}


@pytest.fixture(scope="module")
def traced():
    return {n: run_workload(n, SEED, 0.0, True, True) for n in WORKLOADS}


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_every_end_to_end_metric_is_reported_with_its_unit(untraced):
    for name, record in untraced.items():
        assert record["correct"], (name, record["problems"])
        assert record["failed"] == 0 and record["attempted"] >= 1
        assert {k: m["unit"] for k, m in record["metrics"].items()} == END_TO_END_UNITS
        assert all(m["value"] > 0 for m in record["metrics"].values()), name


def test_every_per_layer_metric_is_reported_with_its_unit(traced):
    units = tracing.per_layer_units()
    for name, record in traced.items():
        assert record["correct"], (name, record["problems"])
        assert {k: m["unit"] for k, m in record["metrics"].items()} == units


def test_layers_account_for_the_traced_time(traced):
    for name, record in traced.items():
        assert record["metrics"]["unattributed.share"]["value"] < 0.15, name


def test_wrappers_are_removed_after_a_traced_run(traced, wrapped_leftovers):
    assert wrapped_leftovers() == []


def test_each_workload_exercises_the_layer_it_was_chosen_for(traced):
    share = lambda w, layer: traced[w]["metrics"][f"{layer}.share"]["value"]  # noqa: E731
    assert share("write-cascade", "cascade") > 0.2
    assert share("write-cascade", "search") == 0
    assert share("read-topk", "index") > 0.2
    assert share("read-topk", "search_batch") == 0
    assert share("read-storm", "search_batch") > 0.2
    assert share("lookup-exact", "overlay") > 0.4
    assert share("lookup-exact", "index") == 0
    assert share("lsh-probe", "lsh") > 0.05
    for w in WORKLOADS:
        if w != "lsh-probe":
            assert share(w, "lsh") == 0, w
        if w != "hostile-mix":
            assert share(w, "maint") == 0 and share(w, "replication") == 0, w
    hostile = traced["hostile-mix"]["metrics"]
    assert hostile["search_batch.fallback_share"]["value"] == 1.0
    assert hostile["publish.sequential_share"]["value"] == 1.0
    assert hostile["sim.dropped_share"]["value"] > 0


def test_simulated_numbers_are_a_function_of_the_seed(untraced, traced):
    for name in WORKLOADS:
        again = run_workload(name, SEED, 0.0, False, True)
        assert again["sim"] == untraced[name]["sim"], name
        # The traced and obs-on passes do the same simulated work too.
        assert traced[name]["sim"] == untraced[name]["sim"], name
        other = run_workload(name, SEED + 1, 0.0, False, True)
        assert other["sim"] != untraced[name]["sim"], name


def test_benchmark_json_matches_the_code(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.per_layer_units()
    assert all(os.path.isdir(os.path.join(ROOT, p)) for p in spec["paths"])


def test_cli_prints_the_result_object_last_and_appends_records(tmp_path, capsys):
    out = tmp_path / "set.jsonl"
    assert main(["--workload", "lookup-exact", "--quick", "--out", str(out)]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and set(last["metrics"]) == set(END_TO_END_UNITS)
    assert main(["--workload", "lookup-exact", "--quick", "--out", str(out)]) == 0
    records = compare.load(str(out))
    assert len(records) == 2 and records[0]["sim"] == records[1]["sim"]


def test_batch_ground_truth_matches_the_experiments_per_query_one():
    from bench.checks import exact_top_k
    from bench.workloads import ReadTopK
    from repro.experiments.lshfrontier import exact_top_k as reference

    w = ReadTopK(SEED, quick=True)
    queries = w.queries[:40] + [w.corpus.vector(i) for i in range(10)]
    assert exact_top_k(w.corpus, queries, 10) == [reference(w.corpus, q, 10) for q in queries]


def test_compare_verdicts(spec):
    lower = dict(better="lower", bound=0.10)
    assert compare.verdict([1.0, 1.01, 1.02], [1.05, 1.06, 1.04], **lower) == "ok"
    assert compare.verdict([1.0, 1.01, 1.02], [1.2, 1.21, 1.19], **lower) == "worse"
    assert compare.verdict([1.0, 1.01, 1.02], [0.5, 0.51, 0.52], **lower) == "ok"
    # Spread wider than the bound and the runs interleave.
    assert compare.verdict([1.0, 1.5, 2.0, 1.2], [1.1, 1.9, 1.4, 2.1], **lower) == "unresolved"
    # ... unless every run of B beats every run of A.
    assert compare.verdict([1.0, 1.5, 2.0, 1.2], [0.5, 0.9, 0.7, 0.6], **lower) == "ok"
    higher = dict(better="higher", bound=0.10)
    assert compare.verdict([100, 101, 102], [80, 81, 82], **higher) == "worse"
    assert compare.verdict([100, 101, 102], [120, 121, 122], **higher) == "ok"

    def rec(seed, wall, sim):
        return {"workload": "w", "seed": seed, "quick": False, "trace": 0, "sim": sim,
                "metrics": {"run_wall_s": {"value": wall, "unit": "s"}}}

    a = [rec(1, 1.0, {"msgs": 5}), rec(2, 1.02, {"msgs": 6})]
    b = [rec(1, 1.01, {"msgs": 5}), rec(2, 1.03, {"msgs": 7})]
    rows, sim_rows = compare.compare(a, b, spec["end_to_end"])
    assert [(r[0], r[1]["name"], r[4]) for r in rows] == [("w", "run_wall_s", "ok")]
    assert sim_rows == [("w", 1, True), ("w", 2, False)]
