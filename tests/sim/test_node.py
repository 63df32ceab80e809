"""Unit tests for the peer node storage model."""

import numpy as np
import pytest

from repro.sim.node import CapacityError, PeerNode, StoredItem
from repro.vsm.index import RowBlock


def make_item(item_id: int, key: int = 100, kws=(1, 2)) -> StoredItem:
    kw = np.asarray(kws, dtype=np.int64)
    return StoredItem(
        item_id=item_id,
        publish_key=key,
        angle_key=key,
        keyword_ids=kw,
        weights=np.ones(len(kw)),
    )


def make_rows(item_ids, key: int = 100) -> RowBlock:
    """The rows of ``make_item`` items — what ``store_many`` takes."""
    return RowBlock.from_items([make_item(i, key=key) for i in item_ids])


class TestStoredItem:
    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            StoredItem(1, 0, 0, np.array([1, 2]), np.array([1.0]))

    def test_replica_flag(self):
        assert not make_item(1).is_replica
        replica = StoredItem(
            1, 0, 0, np.array([1]), np.array([1.0]), replica_of=42
        )
        assert replica.is_replica


class TestCapacity:
    def test_unbounded_by_default(self):
        node = PeerNode(5)
        for i in range(100):
            node.store(make_item(i))
        assert len(node) == 100
        assert not node.is_full
        assert node.free_slots is None

    def test_capacity_enforced(self):
        node = PeerNode(5, capacity=2)
        node.store(make_item(1))
        node.store(make_item(2))
        assert node.is_full
        assert node.free_slots == 0
        with pytest.raises(CapacityError):
            node.store(make_item(3))

    def test_restore_same_item_allowed_when_full(self):
        node = PeerNode(5, capacity=1)
        node.store(make_item(1, key=10))
        node.store(make_item(1, key=20))  # republish replaces in place
        assert node.get_item(1).publish_key == 20
        assert len(node) == 1

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            PeerNode(1, capacity=0)

    def test_evict_frees_slot(self):
        node = PeerNode(5, capacity=1)
        node.store(make_item(1))
        evicted = node.evict(1)
        assert evicted.item_id == 1
        assert not node.is_full
        node.store(make_item(2))

    def test_evict_missing_raises(self):
        with pytest.raises(KeyError):
            PeerNode(5).evict(99)

    def test_utilization(self):
        node = PeerNode(5)
        for i in range(10):
            node.store(make_item(i))
        assert node.utilization(5.0) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            node.utilization(0.0)


class TestAccessors:
    def test_has_get_items(self):
        node = PeerNode(5)
        node.store(make_item(7))
        assert node.has_item(7)
        assert not node.has_item(8)
        assert node.get_item(7).item_id == 7
        assert [i.item_id for i in node.items()] == [7]
        assert list(node.item_ids()) == [7]


class TestStore:
    """The node's one store is its local VSM index, created on demand."""

    def test_empty_node_allocates_no_store(self):
        node = PeerNode(5, capacity=3)
        assert node.index is None
        assert len(node) == 0 and not node.has_item(1)
        assert list(node.items()) == [] and node.evict_many([]) == []
        with pytest.raises(KeyError):
            node.get_item(1)
        with pytest.raises(KeyError):
            node.evict_many([1])

    def test_store_is_the_index(self):
        node = PeerNode(5)
        node.store_many(make_rows([1, 2]))
        node.store(make_item(3))
        node.evict(2)
        assert sorted(node.index.items_by_id()) == [1, 3]
        assert [(k, i) for k, i in node.index.angle_ladder()] == [(100, 1), (100, 3)]

    def test_bulk_store_counts_only_ids_not_held(self):
        node = PeerNode(5, capacity=3)
        node.store_many(make_rows(range(2)))
        node.store_many(make_rows(range(3), key=7))  # one new id
        assert len(node) == 3
        assert node.get_item(0).publish_key == 7

    @pytest.mark.parametrize(
        "held, op, error",
        [
            # 5 new ids onto an empty capacity-3 node.
            ([], lambda n: n.store_many(make_rows(range(5))), CapacityError),
            # 2 held + 2 new (one repeated) + 1 re-stored overfill capacity 3.
            ([0, 1], lambda n: n.store_many(make_rows((1, 5, 6, 6))), CapacityError),
            # The first id is held, the second is not.
            ([0, 1], lambda n: n.evict_many([0, 99]), KeyError),
        ],
        ids=["store-empty", "store-partial", "evict-unknown"],
    )
    def test_bulk_ops_are_all_or_nothing(self, held, op, error):
        node = PeerNode(5, capacity=3)
        node.store_many(make_rows(held))
        with pytest.raises(error):
            op(node)
        assert sorted(node.item_ids()) == held
        if node.index is not None:
            assert [i for _, i in node.index.angle_ladder()] == held


class TestPointers:
    """§3.5.2 pointers are rows of a second index on the node: the
    item's own ``StoredItem``, its ``publish_key`` naming the body."""

    def test_pointers_do_not_consume_capacity(self):
        node = PeerNode(5, capacity=1)
        node.store(make_item(1))
        for i in range(10):
            node.add_pointer(make_item(i, key=9))
        assert len(node.pointers) == 10
        assert node.is_full  # still only one *item*
        assert node.pointers is not node.index

    def test_pointer_store_created_on_first_pointer(self):
        node = PeerNode(5)
        assert node.pointers is None
        node.add_pointer(make_item(3, key=9))
        assert node.pointers.item(3).publish_key == 9
        assert node.index is None  # a pointer is not an item

    def test_pointer_overwrite_by_item_id(self):
        node = PeerNode(5)
        node.add_pointer(make_item(3, key=9))
        node.add_pointer(make_item(3, key=11, kws=(4,)))
        assert len(node.pointers) == 1
        assert node.pointers.item(3).publish_key == 11


class TestLifecycle:
    def test_fail_and_recover_preserves_items(self):
        node = PeerNode(5)
        node.store(make_item(1))
        node.fail()
        assert not node.alive
        assert node.has_item(1)
        node.recover()
        assert node.alive
