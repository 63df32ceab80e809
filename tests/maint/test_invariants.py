"""Chaos invariants: green on healthy state, loud on planted defects.

A harness is only as good as its ability to *fail*: each check gets
one test on an untouched system (ok) and one where the corresponding
defect is planted by hand (violation with a usable sample message).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.maint import (
    RepairEngine,
    check_accounting,
    check_all,
    check_holder_index,
    check_pointers,
    check_reachability,
    check_replica_counts,
)
from repro.sim.linkfaults import LinkFaultPlane


@pytest.fixture()
def system(build_replicated, tiny_trace):
    return build_replicated(trace=tiny_trace, n_nodes=100, seed=21)


def _first_record(system):
    """An item id and the nodes its record credits."""
    item_id = next(iter(system.replication.holders))
    return item_id, system.replication.holders[item_id]


class TestHealthyState:
    def test_all_green(self, system):
        repair = RepairEngine(system).attach()
        plane = system.network.attach_link_faults(LinkFaultPlane(seed=0))
        system.network.send(*list(system.network.alive_ids())[:2])
        reports = check_all(system, repair=repair, plane=plane)
        assert set(reports) == {
            "reachability", "replica_counts", "accounting", "holder_index",
            "pointers",
        }
        assert all(r.ok for r in reports.values())
        assert reports["reachability"].checked > 0
        assert reports["holder_index"].checked > 0

    def test_unreplicated_system_vacuously_ok(self, build_system_fn, tiny_trace):
        system = build_system_fn(tiny_trace)
        reports = check_all(system)
        assert all(r.ok for r in reports.values())
        assert reports["reachability"].checked == 0


class TestReachability:
    def test_detects_copies_stranded_far_from_home(self, system):
        item_id, record = _first_record(system)
        network = system.network
        overlay = system.overlay
        home = overlay.live_home(system.published_key_of(item_id))
        # Strand the item: strip every copy near the home, park one on
        # the live node farthest down the walk order.
        stranded = None
        for nid in reversed(list(overlay.walk_order(home, "both"))):
            if network.is_alive(nid) and not network.node(nid).has_item(item_id):
                stranded = nid
                break
        item = None
        for holder in list(record):
            if network.node(holder).has_item(item_id):
                item = network.node(holder).evict(item_id)
        network.node(stranded).store(item)
        system.replication.holders[item_id] = {stranded}
        report = check_reachability(system)
        assert not report.ok
        assert any(str(item_id) in s for s in report.samples)

    def test_items_with_no_live_copy_are_lost_not_violations(self, system):
        item_id, record = _first_record(system)
        for holder in list(record):
            if system.network.node(holder).has_item(item_id):
                system.network.node(holder).evict(item_id)
        report = check_reachability(system)
        assert report.ok
        assert report.info["lost"] == 1


class TestReplicaCounts:
    def test_detects_partial_loss(self, system):
        item_id, record = _first_record(system)
        survivors = sorted(
            h for h in record
            if system.network.node(h).has_item(item_id)
        )
        for holder in survivors[1:]:  # leave exactly one live copy
            system.network.node(holder).evict(item_id)
        report = check_replica_counts(system)
        assert not report.ok
        assert report.violations == 1

    def test_total_loss_is_info(self, system):
        item_id, record = _first_record(system)
        for holder in list(record):
            if system.network.node(holder).has_item(item_id):
                system.network.node(holder).evict(item_id)
        report = check_replica_counts(system)
        assert report.ok
        assert report.info["lost"] == 1


class TestAccounting:
    def test_no_plane_vacuously_ok(self):
        assert check_accounting(None).ok

    def test_detects_unclassified_charge(self):
        plane = LinkFaultPlane(seed=0)
        plane.charged += 1  # a message charged but never classified
        report = check_accounting(plane)
        assert not report.ok
        assert "charged 1" in report.samples[0]


class TestHolderIndex:
    def test_detects_dangling_live_credit(self, system):
        item_id, record = _first_record(system)
        holder = next(
            h for h in record
            if system.network.node(h).has_item(item_id)
        )
        system.network.node(holder).evict(item_id)  # index not told
        report = check_holder_index(system)
        assert not report.ok

    def test_detects_index_transpose_skew(self, system):
        item_id, record = _first_record(system)
        holder = next(iter(record))
        system.replication.held[holder].discard(item_id)  # record not told
        report = check_holder_index(system)
        assert not report.ok

    def test_detects_a_copy_under_a_superseded_key(self, system):
        from dataclasses import replace

        item_id, record = _first_record(system)
        holder = next(iter(record))
        node = system.network.node(holder)
        stale = replace(node.get_item(item_id), publish_key=-1)
        node.store(stale)  # replaces the copy in place; still credited
        report = check_holder_index(system)
        assert not report.ok
        assert "superseded key" in report.samples[0]

    def test_runs_at_factor_one(self, build_system_fn, tiny_trace):
        system = build_system_fn(tiny_trace)
        system.publish_corpus(tiny_trace.corpus, np.random.default_rng(3))
        report = check_holder_index(system)
        assert report.ok and report.checked == tiny_trace.corpus.n_items
        item_id, record = _first_record(system)
        system.network.node(next(iter(record))).evict(item_id)
        assert not check_holder_index(system).ok


class TestPointers:
    @pytest.fixture()
    def pointer_system(self, build_system_fn, tiny_trace):
        system = build_system_fn(tiny_trace, directory_pointers=True)
        system.publish_corpus(tiny_trace.corpus, np.random.default_rng(3))
        return system

    def test_fresh_rows_are_ok(self, pointer_system):
        report = check_pointers(pointer_system)
        assert report.ok, report.samples
        assert report.checked > 0

    def test_pointers_off_is_vacuously_ok(self, system):
        report = check_pointers(system)
        assert report.ok and report.checked == 0

    def test_detects_a_row_naming_no_body(self, pointer_system):
        item_id, record = _first_record(pointer_system)
        for holder in record:
            pointer_system.network.node(holder).evict(item_id)
        report = check_pointers(pointer_system)
        assert not report.ok
        assert any("no held body" in s for s in report.samples)

    def test_detects_a_body_without_its_row(self, pointer_system):
        item_id, _ = _first_record(pointer_system)
        row_holder = pointer_system.replication.rows[item_id]
        pointer_system.network.node(row_holder).pointers.remove(item_id)
        report = check_pointers(pointer_system)
        assert not report.ok
        assert any("has no row" in s for s in report.samples)

    def test_a_dead_row_holder_is_tolerated(self, pointer_system):
        item_id, _ = _first_record(pointer_system)
        pointer_system.network.fail_node(pointer_system.replication.rows[item_id])
        assert check_pointers(pointer_system).ok
