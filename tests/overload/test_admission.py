"""Admission control: token-bucket math, shed semantics, fabric wiring."""

from __future__ import annotations

import pytest

from repro.obs import Observability
from repro.overload import AdmissionController, BackpressureError, OverloadPolicy
from repro.sim.network import DeadNodeError, Network
from repro.sim.node import PeerNode


def controller(**kwargs) -> AdmissionController:
    defaults = dict(service_rate=1e-9, queue_cap=4)
    defaults.update(kwargs)
    return AdmissionController(OverloadPolicy(**defaults))


class TestTokenBucket:
    def test_backlog_grows_per_admitted_arrival(self):
        adm = controller(queue_cap=100)
        for _ in range(3):
            assert adm.try_arrive(7, "publish")
        assert adm.backlog_of(7) == pytest.approx(3.0, abs=1e-6)

    def test_backlog_drains_at_service_rate(self):
        adm = controller(service_rate=0.25, queue_cap=100)
        # Clock ticks 1..4; each arrival drains the elapsed gap first.
        for _ in range(4):
            adm.try_arrive(7, "publish")
        assert adm.backlog_of(7) == pytest.approx(3.25)
        adm.advance(13)  # 13 * 0.25 = 3.25 drained
        assert adm.backlog_of(7) == 0.0
        assert not adm.saturated(7)

    def test_clock_is_global_across_destinations(self):
        adm = controller(service_rate=0.5, queue_cap=100)
        adm.try_arrive(7, "publish")
        # Traffic at *other* nodes still drains node 7's meter.
        for _ in range(10):
            adm.try_arrive(9, "publish")
        assert adm.backlog_of(7) == 0.0

    def test_shed_raises_for_shed_kinds(self):
        adm = controller(queue_cap=2)
        assert adm.try_arrive(3, "retrieve")
        assert adm.try_arrive(3, "retrieve")
        with pytest.raises(BackpressureError) as exc:
            adm.arrive(3, "retrieve")
        assert exc.value.node_id == 3
        assert exc.value.kind == "retrieve"
        assert adm.sheds == 1

    def test_shed_leaves_backlog_unchanged(self):
        adm = controller(queue_cap=2)
        adm.try_arrive(3, "publish")
        adm.try_arrive(3, "publish")
        depth = adm.backlog_of(3)
        assert not adm.try_arrive(3, "publish")
        assert adm.backlog_of(3) == pytest.approx(depth, abs=1e-6)

    def test_control_traffic_never_refused(self):
        adm = controller(queue_cap=2)
        for _ in range(10):
            assert adm.try_arrive(3, "displace")
        # Backlog clamps at the cap instead of growing without bound...
        assert adm.backlog_of(3) <= adm.policy.queue_cap + 1e-9
        # ...and a saturated meter still sheds application traffic.
        assert not adm.try_arrive(3, "publish")

    def test_per_node_rate_override(self):
        adm = controller(service_rate=1e-9, queue_cap=100)
        adm.set_rate(5, 1.0)
        for node in (5, 6):
            for _ in range(4):
                adm.try_arrive(node, "publish")
        adm.advance(10)
        assert adm.backlog_of(5) == 0.0  # drains a full message per tick
        assert adm.backlog_of(6) == pytest.approx(4.0, abs=1e-6)
        assert adm.rate_of(5) == 1.0
        assert adm.rate_of(6) == pytest.approx(1e-9)

    def test_shed_rate_property(self):
        adm = controller(queue_cap=2)
        assert adm.shed_rate == 0.0
        adm.try_arrive(1, "publish")
        adm.try_arrive(1, "publish")
        adm.try_arrive(1, "publish")  # shed
        assert adm.admitted == 2
        assert adm.sheds == 1
        assert adm.shed_rate == pytest.approx(1 / 3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"service_rate": 0.0},
            {"service_rate": -1.0},
            {"queue_cap": 0},
            {"breaker_threshold": 0},
            {"breaker_open_for": 0},
            {"breaker_probe_every": 0},
            {"divert_attempts": 0},
        ],
    )
    def test_bad_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            OverloadPolicy(**kwargs)

    def test_bad_rate_override_rejected(self):
        with pytest.raises(ValueError):
            controller().set_rate(1, 0.0)


def make_network(n: int = 3, **node_kwargs) -> Network:
    net = Network()
    for i in range(n):
        net.add_node(PeerNode(i * 10, **node_kwargs))
    return net


class TestNetworkIntegration:
    def test_default_fabric_has_no_admission(self):
        assert make_network().admission is None

    def test_send_raises_backpressure_and_still_charges(self):
        net = make_network()
        net.attach_admission(controller(queue_cap=1))
        net.send(0, 10, kind="retrieve")
        before = net.sink.total
        with pytest.raises(BackpressureError):
            net.send(0, 10, kind="retrieve")
        # The sender spent the transmission either way (DeadNodeError
        # contract, extended to sheds).
        assert net.sink.total == before + 1

    def test_dead_destination_takes_precedence_over_shed(self):
        net = make_network()
        net.attach_admission(controller(queue_cap=1))
        net.send(0, 10, kind="retrieve")
        net.fail_node(10)
        with pytest.raises(DeadNodeError):
            net.send(0, 10, kind="retrieve")

    def test_attach_seeds_per_node_service_rates(self):
        net = make_network(service_rate=0.75)
        adm = net.attach_admission(controller())
        assert adm.rate_of(0) == 0.75
        assert adm.rate_of(10) == 0.75

    def test_detach_restores_unmetered_sends(self):
        net = make_network()
        net.attach_admission(controller(queue_cap=1))
        net.send(0, 10, kind="retrieve")
        net.attach_admission(None)
        for _ in range(5):
            net.send(0, 10, kind="retrieve")  # no shed: meters detached

    def test_shed_instruments_populate(self):
        obs = Observability()
        net = Network(obs=obs)
        for i in range(2):
            net.add_node(PeerNode(i * 10))
        net.attach_admission(AdmissionController(
            OverloadPolicy(service_rate=1e-9, queue_cap=1), obs=obs
        ))
        net.send(0, 10, kind="retrieve")
        with pytest.raises(BackpressureError):
            net.send(0, 10, kind="retrieve")
        counters = obs.metrics.counters
        assert counters["overload.shed"] == 1
        assert counters["overload.shed.retrieve"] == 1
        assert obs.metrics.buckets["overload.shed_node"][10] == 1
        assert obs.metrics.distributions["overload.queue_depth"].count == 2
