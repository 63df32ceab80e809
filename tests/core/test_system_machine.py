"""System-level stateful test: any operation sequence keeps the system sound.

One small ``Meteorograph`` at finite capacity, so both the per-item
displacement chains and the batch cascade run, with or without §3.5.2
directory pointers (which route reads through the pointer sweep and
body fetch), at replication factor 1, 2 or 3 (a replicated system gets
an attached ``RepairEngine``) and a displacement hop budget of none, 0
or 2 (so chains drop victims), driven by interleaved
publishes (``publish``; ``publish_corpus`` through the engine and
through ``oracle_publish``, unshared or with the shared route), reads (``retrieve``,
``retrieve_many``, ``find``), membership changes (remove, add under
a fresh id, rejoin under a removed one, fail, recover, ``stabilize``)
and repair ticks.

After every step:

* ``check_all`` holds — the item record's contract (``holder_index``:
  credited ⇔ stored, under a current publish key), message accounting
  and pointer freshness (``pointers``: every row on a live node is the
  one the record names and matches a held body, every body on a live
  node has its row unless the row's holder is down), across fail,
  recover, remove and rejoin steps alike.
  ``reachability`` and ``replica_counts`` are quiescence conditions
  (after repair, without full nodes) that a mid-run step of a
  finite-capacity ring legitimately breaks: a replica push skips a full
  target, and a failure leaves items short until the next tick;
* every discovery a read returned is held by the node it names;
* every item a live node holds is found by ``find`` with no walk limit.

The example budget scales with the Hypothesis profile: tier-1 runs half
the default one, ``HYPOTHESIS_PROFILE=ci`` ten times that.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from publish_oracle import oracle_publish

from repro.core.meteorograph import Meteorograph, MeteorographConfig, PlacementScheme
from repro.maint import RepairEngine
from repro.maint.invariants import check_all
from repro.overlay.idspace import KeySpace
from repro.workload import WorldCupParams, generate_trace

CORPUS = generate_trace(
    WorldCupParams(n_items=48, n_keywords=40, mean_basket=6.0), seed=7
).corpus
SPACE = KeySpace(1 << 16)
rows = st.integers(0, CORPUS.n_items - 1)
picks = st.integers(0, 2**16)  # an index into whatever list the rule picks from


class SystemMachine(RuleBasedStateMachine):
    @initialize(
        seed=st.integers(0, 2**16),
        n_nodes=st.integers(4, 10),
        capacity=st.sampled_from([2, 3, 6]),
        pointers=st.booleans(),
        replication=st.sampled_from([1, 2, 3]),
        hop_budget=st.sampled_from([None, 0, 2]),
    )
    def build(self, seed, n_nodes, capacity, pointers, replication, hop_budget):
        self.capacity = capacity
        self.rng = np.random.default_rng(seed)
        self.system = Meteorograph.build(
            n_nodes,
            CORPUS.dim,
            rng=np.random.default_rng(seed),
            space=SPACE,
            sample=CORPUS,
            config=MeteorographConfig(
                scheme=PlacementScheme.UNUSED_HASH,
                node_capacity=capacity,
                directory_pointers=pointers,
                replication_factor=replication,
                hop_budget=hop_budget,
            ),
        )
        self.repair = RepairEngine(self.system).attach() if replication > 1 else None
        self.removed: list[int] = []
        #: Every read since the last invariant check: (item, node) pairs.
        self.discoveries: list[tuple[int, int]] = []

    # -- helpers --------------------------------------------------------------

    def live(self) -> list[int]:
        network = self.system.network
        return [nid for nid in self.system.overlay.ring if network.is_alive(nid)]

    def pick(self, ids: list[int], i: int) -> int:
        return ids[i % len(ids)]

    def note(self, results) -> None:
        for result in results:
            self.discoveries += [(d.item_id, d.node_id) for d in result.discoveries]

    # -- writes ---------------------------------------------------------------

    @rule(row=rows, origin=picks)
    def publish(self, row, origin):
        vector = CORPUS.vector(row)
        self.system.publish(
            self.pick(self.live(), origin), row, vector.indices, vector.values
        )

    @rule(
        chosen=st.lists(rows, min_size=1, max_size=12, unique=True),
        path=st.sampled_from(["engine", "oracle", "oracle-sweep"]),
    )
    def publish_corpus(self, chosen, path):
        corpus = CORPUS.subsample(sorted(chosen))
        if path == "engine":
            self.system.publish_corpus(corpus, self.rng, item_ids=sorted(chosen))
        else:
            # The engine never shares a route under pointers, so there the
            # sweep is no reference: it would place and withdraw no rows.
            sweep = path == "oracle-sweep" and not self.system.config.directory_pointers
            oracle_publish(
                self.system, corpus, self.rng, item_ids=sorted(chosen), sweep=sweep
            )

    # -- reads ----------------------------------------------------------------

    @rule(row=rows, origin=picks, amount=st.sampled_from([None, 1, 5]))
    def retrieve(self, row, origin, amount):
        self.note([
            self.system.retrieve(
                self.pick(self.live(), origin), CORPUS.vector(row), amount
            )
        ])

    @rule(
        chosen=st.lists(rows, min_size=1, max_size=6),
        origin=picks,
        amount=st.sampled_from([None, 3]),
    )
    def retrieve_many(self, chosen, origin, amount):
        queries = [CORPUS.vector(r) for r in chosen]
        self.note(
            self.system.retrieve_many(self.pick(self.live(), origin), queries, amount)
        )

    @precondition(lambda self: self.system.published_count)
    @rule(row=rows, origin=picks)
    def find(self, row, origin):
        published = sorted(self.system.replication.keys)
        item_id = self.pick(published, row)
        result = self.system.find(self.pick(self.live(), origin), item_id)
        if result.found:
            self.discoveries.append((item_id, result.node_id))

    # -- membership -----------------------------------------------------------

    @precondition(lambda self: len(self.live()) > 2)
    @rule(i=picks)
    def remove_node(self, i):
        """Remove a live node, the fullest first for small ``i``."""
        network = self.system.network
        nid = self.pick(sorted(self.live(), key=lambda n: -len(network.node(n))), i)
        self.system.overlay.remove_node(nid)
        self.removed.append(nid)

    @rule()
    def add_node(self):
        nid = int(self.rng.integers(0, SPACE.modulus))
        while nid in self.system.overlay.ring or nid in self.removed:
            nid = int(self.rng.integers(0, SPACE.modulus))
        self.system.overlay.add_node(nid, capacity=self.capacity)

    @precondition(lambda self: self.removed)
    @rule(i=picks)
    def rejoin_node(self, i):
        """Add a removed node back under its old id."""
        nid = self.removed.pop(i % len(self.removed))
        self.system.overlay.add_node(nid, capacity=self.capacity)

    @precondition(lambda self: len(self.live()) > 2)
    @rule(i=picks)
    def fail(self, i):
        self.system.network.fail_node(self.pick(self.live(), i))

    @rule(i=picks)
    def recover(self, i):
        network = self.system.network
        dead = [nid for nid in self.system.overlay.ring if not network.is_alive(nid)]
        if dead:
            network.recover_node(self.pick(dead, i))

    @rule()
    def stabilize(self):
        self.system.overlay.stabilize()

    @precondition(lambda self: self.repair is not None)
    @rule()
    def repair_tick(self):
        self.repair.tick()

    # -- invariants -----------------------------------------------------------

    @invariant()
    def invariants_hold(self):
        reports = check_all(self.system, repair=self.repair)
        for name in ("holder_index", "accounting", "pointers"):
            assert reports[name].ok, reports[name]

    @invariant()
    def discoveries_are_held(self):
        network = self.system.network
        for item_id, node_id in self.discoveries:
            assert network.node(node_id).has_item(item_id), (item_id, node_id)
        self.discoveries.clear()

    @invariant()
    def held_items_are_found(self):
        live = self.live()
        origin = live[0]
        for nid in live:
            for item_id in self.system.network.node(nid).item_ids():
                assert self.system.find(origin, item_id).found, (item_id, nid)


SystemMachine.TestCase.settings = settings(
    max_examples=max(1, settings.default.max_examples // 2),
    stateful_step_count=50,
    deadline=None,
)
test_system_machine = SystemMachine.TestCase
