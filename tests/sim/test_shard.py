"""Twin tests: the sharded simulator vs the single-process engine.

The contract under test is the module's headline guarantee — a sharded
run at matched seed is *bit-identical* to the single-process run in
placements, message bill, per-node loads and full retrieve results, for
every shard count and for partitions that wrap rank 0.
"""

import numpy as np
import pytest

from repro.core import PlacementScheme
from repro.core.meteorograph import Meteorograph, MeteorographConfig
from repro.experiments.common import build_system, default_trace
from repro.sim.shard import (
    ShardCapacityError,
    ShardConfigError,
    ShardSpec,
    ShardWalkError,
    ShardedSimulator,
)

SEED = 42
N_NODES = 150
N_QUERIES = 40


@pytest.fixture(scope="module")
def trace():
    return default_trace(n_items=1200, n_keywords=500, scale=1.0)


@pytest.fixture(scope="module")
def builder(trace):
    def build():
        return build_system(
            trace, N_NODES, PlacementScheme.UNUSED_HASH,
            rng=np.random.default_rng(SEED),
        )

    return build


@pytest.fixture(scope="module")
def workload(trace, builder):
    system = builder()
    ring = system.overlay.ring.as_array()
    rng = np.random.default_rng(9)
    q_idx = rng.integers(0, trace.corpus.n_items, N_QUERIES)
    queries = [trace.corpus.vector(int(i)) for i in q_idx]
    origins = [int(ring[i]) for i in rng.integers(0, ring.size, N_QUERIES)]
    return origins, queries


@pytest.fixture(scope="module")
def reference(trace, builder, workload):
    """Single-process run: publish results, retrieve results, bill, loads."""
    origins, queries = workload
    system = builder()
    publish = system.publish_corpus(
        trace.corpus, np.random.default_rng(7), batch=True
    )
    retrieve = system.retrieve_many(origins, queries, 5)
    return {
        "system": system,
        "publish": publish,
        "retrieve": retrieve,
        "bill": system.network.sink.snapshot(),
        "loads": system.loads(),
    }


def assert_twin(sim, trace, workload, reference):
    origins, queries = workload
    publish = sim.publish_corpus(trace.corpus, np.random.default_rng(7))
    retrieve = sim.retrieve_many(origins, queries, 5)
    assert len(publish) == len(reference["publish"])
    for a, b in zip(reference["publish"], publish):
        assert (a.item_id, a.home, a.route_hops, a.success) == (
            b.item_id, b.home, b.route_hops, b.success
        )
    assert sim.sink.snapshot() == reference["bill"]
    assert np.array_equal(sim.loads(), reference["loads"])
    for a, b in zip(reference["retrieve"], retrieve):
        assert a.route_hops == b.route_hops
        assert a.walk_hops == b.walk_hops
        assert a.visited == b.visited
        assert a.complete == b.complete
        assert [(d.item_id, d.score) for d in a.discoveries] == [
            (d.item_id, d.score) for d in b.discoveries
        ]


class TestShardSpec:
    def test_ranks_partition_exactly(self):
        spec = ShardSpec(4, 103, offset=0)
        ranks = np.arange(103)
        owner = spec.owner_of_ranks(ranks)
        for s in range(4):
            from_mask = set(ranks[owner == s].tolist())
            from_intervals = {
                r for a, b in spec.owned_intervals(s) for r in range(a, b)
            }
            assert from_mask == from_intervals
        # Every rank owned by exactly one shard.
        assert sorted(
            r for s in range(4) for a, b in spec.owned_intervals(s)
            for r in range(a, b)
        ) == list(range(103))

    def test_offset_wraps_rank_zero(self):
        spec = ShardSpec(4, 100, offset=37)
        # The last shard straddles rank 0: two true-rank intervals.
        wrapped = [s for s in range(4) if len(spec.owned_intervals(s)) == 2]
        assert len(wrapped) == 1
        ivs = spec.owned_intervals(wrapped[0])
        assert ivs[0][1] == 100 and ivs[1][0] == 0

    def test_interest_dilates_by_halo_clipped(self):
        spec = ShardSpec(2, 100, halo=10, offset=0)
        assert spec.interest_intervals(0) == [(0, 60)]
        assert spec.interest_intervals(1) == [(40, 100)]
        mask = spec.interest_mask(1, np.arange(100))
        assert not mask[:40].any() and mask[40:].all()

    def test_config_errors(self):
        with pytest.raises(ShardConfigError):
            ShardSpec(0, 10)
        with pytest.raises(ShardConfigError):
            ShardSpec(11, 10)
        with pytest.raises(ShardConfigError):
            ShardSpec(2, 10, halo=-1)


class TestSerialTwin:
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
    def test_identical_across_shard_counts(
        self, trace, builder, workload, reference, n_shards
    ):
        sim = ShardedSimulator(builder, n_shards=n_shards, halo=96)
        assert_twin(sim, trace, workload, reference)

    def test_identical_with_wraparound_partition(
        self, trace, builder, workload, reference
    ):
        sim = ShardedSimulator(builder, n_shards=4, halo=96, offset=37)
        assert_twin(sim, trace, workload, reference)

    def test_worker_state_matches_single(self, trace, builder, reference):
        """Owned nodes hold exactly the items the single-process run
        stored on them (halo replication never leaks into ownership)."""
        single = reference["system"]
        ring = single.overlay.ring.as_array()
        sim = ShardedSimulator(builder, n_shards=4, halo=96)
        sim.publish_corpus(trace.corpus, np.random.default_rng(7))
        for w in sim._workers:
            for lo, hi in sim.spec.owned_intervals(w.shard_id):
                for rank in range(lo, min(hi, lo + 4)):
                    nid = int(ring[rank])
                    a = sorted(
                        it.item_id
                        for it in single.network.node(nid).items()
                    )
                    b = sorted(
                        it.item_id
                        for it in w.system.network.node(nid).items()
                    )
                    assert a == b

    def test_merged_sink_carries_shard_instruments(
        self, trace, builder, workload
    ):
        origins, queries = workload
        sim = ShardedSimulator(builder, n_shards=2, halo=96)
        sim.publish_corpus(trace.corpus, np.random.default_rng(7))
        sim.retrieve_many(origins, queries, 5)
        dists = sim.sink.distributions
        timers = sim.sink.timers
        assert dists["shard.publish.items"].count == 2
        # Halo replication double-counts boundary items across shards.
        assert dists["shard.publish.items"].total >= trace.corpus.n_items
        assert dists["shard.retrieve.queries"].total == len(queries)
        assert "shard.retrieve.walk_worst" in dists
        assert timers["shard.publish"].wall.count == 2
        # Counters stay pure message bill: shard.* lives outside snapshot().
        assert not any(k.startswith("shard.") for k in sim.sink.snapshot())


class TestFailuresAndGuards:
    def test_fail_nodes_twin(self, trace, builder, workload):
        origins, queries = workload
        single = builder()
        single.publish_corpus(trace.corpus, np.random.default_rng(7), batch=True)
        victims = [int(single.overlay.ring.at(r)) for r in (10, 55, 99)]
        victims = [v for v in victims if v not in origins]
        single.network.fail_nodes(victims)
        ref = single.retrieve_many(origins, queries, 5)
        ref_bill = single.network.sink.snapshot()
        sim = ShardedSimulator(builder, n_shards=4)
        sim.publish_corpus(trace.corpus, np.random.default_rng(7))
        sim.fail_nodes(victims)
        got = sim.retrieve_many(origins, queries, 5)
        assert sim.sink.snapshot() == ref_bill
        for a, b in zip(ref, got):
            assert a.visited == b.visited
            assert [(d.item_id, d.score) for d in a.discoveries] == [
                (d.item_id, d.score) for d in b.discoveries
            ]

    def test_walk_guard_raises_not_diverges(self, trace, builder, workload):
        origins, queries = workload
        sim = ShardedSimulator(builder, n_shards=8, halo=0)
        sim.publish_corpus(trace.corpus, np.random.default_rng(7))
        with pytest.raises(ShardWalkError):
            sim.retrieve_many(origins, queries, 5)

    def test_capacity_overflow_refused(self, trace):
        cfg = MeteorographConfig(
            scheme=PlacementScheme.UNUSED_HASH, node_capacity=2
        )
        sample = trace.corpus.subsample(np.arange(100))

        def tight_builder():
            return Meteorograph.build(
                N_NODES,
                trace.corpus.dim,
                rng=np.random.default_rng(SEED),
                sample=sample,
                config=cfg,
            )

        sim = ShardedSimulator(tight_builder, n_shards=2)
        with pytest.raises(ShardCapacityError):
            sim.publish_corpus(trace.corpus, np.random.default_rng(7))

    def test_unshardable_config_rejected(self, trace):
        cfg = MeteorographConfig(
            scheme=PlacementScheme.UNUSED_HASH, replication_factor=2
        )
        sample = trace.corpus.subsample(np.arange(100))

        def replicated_builder():
            return Meteorograph.build(
                N_NODES,
                trace.corpus.dim,
                rng=np.random.default_rng(SEED),
                sample=sample,
                config=cfg,
            )

        with pytest.raises(ShardConfigError):
            ShardedSimulator(replicated_builder, n_shards=2)

    def test_unknown_retrieve_knob_rejected(self, builder, workload):
        origins, queries = workload
        sim = ShardedSimulator(builder, n_shards=1)
        with pytest.raises(ShardConfigError):
            sim.retrieve_many(origins, queries, 5, window=8)
