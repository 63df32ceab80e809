"""One store per node: what ``retrieve`` reads is what ``find`` reads.

Each node's local VSM index is its only item store, so a discovery
always names a node that holds the item, a node that leaves the ring
takes its items with it, and a read allocates nothing on a node that
never stored an item.
"""

import numpy as np
import pytest

N_NODES = 40


@pytest.fixture()
def published(tiny_trace, build_system_fn):
    system = build_system_fn(tiny_trace, n_nodes=N_NODES)
    system.publish_corpus(tiny_trace.corpus, np.random.default_rng(3))
    return system


def assert_held(system, result):
    for d in result.discoveries:
        assert system.network.node(d.node_id).has_item(d.item_id), (d.item_id, d.node_id)


class TestRejoin:
    def rejoin_fullest(self, system):
        """Remove the fullest node and add it back under the same id;
        returns its id and the items it held before leaving."""
        node = max(system.overlay.nodes(), key=len)
        held = sorted(node.item_ids())
        system.overlay.remove_node(node.node_id)
        system.overlay.add_node(node.node_id, capacity=node.capacity)
        return node.node_id, held

    def test_rejoined_node_starts_empty(self, published):
        nid, held = self.rejoin_fullest(published)
        assert held
        node = published.network.node(nid)
        assert len(node) == 0 and node.index is None
        assert not any(node.has_item(i) for i in held)

    def test_discoveries_from_rejoined_node_are_held(self, published, tiny_trace):
        """Twenty retrieves from the rejoined node, each for an item it
        held before leaving: every discovery is held where it says."""
        nid, held = self.rejoin_fullest(published)
        found = 0
        for k in range(20):
            query = tiny_trace.corpus.vector(held[k % len(held)])
            result = published.retrieve(nid, query, 10)
            assert_held(published, result)
            found += len(result.discoveries)
        assert found  # the walk still reaches the neighbours' copies


class TestAllocation:
    def test_reads_on_an_empty_ring_allocate_no_store(self, tiny_trace, build_system_fn):
        system = build_system_fn(tiny_trace, n_nodes=N_NODES)
        origin = next(iter(system.overlay.ring))
        result = system.retrieve(origin, tiny_trace.corpus.vector(0), None)
        assert result.discoveries == [] and len(result.visited) > 1
        system.retrieve_many(origin, [tiny_trace.corpus.vector(i) for i in range(5)], 10)
        assert all(node.index is None for node in system.network.nodes())

