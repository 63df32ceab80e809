"""Tracer arithmetic and patch hygiene, without running a workload."""

from bench.tracing import Tracer


class FakeClock:
    """Advances only when told to, so self times are exact."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_with_nested_and_sibling_spans():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.enabled = True

    def leaf(dt):
        clock.t += dt

    leaf_a = tracer.wrap(leaf, "index", "leaf_a")
    leaf_b = tracer.wrap(leaf, "network", "leaf_b")

    def middle():
        clock.t += 1.0  # own work
        leaf_a(2.0)
        leaf_b(3.0)  # sibling of leaf_a
        clock.t += 0.5

    mid = tracer.wrap(middle, "search", "middle")

    def root():
        clock.t += 0.25
        mid()
        leaf_a(4.0)  # sibling of middle, same name as a nested span

    tracer.wrap(root, "facade", "root")()

    assert tracer.layer_total(tracer.self_s, "facade") == 0.25
    assert tracer.layer_total(tracer.self_s, "search") == 1.5
    assert tracer.layer_total(tracer.self_s, "index") == 6.0
    assert tracer.layer_total(tracer.self_s, "network") == 3.0
    assert tracer.named(tracer.total_s, "middle") == 6.5
    assert tracer.named(tracer.total_s, "root") == 10.75
    # Self times partition the root span: nothing counted twice or lost.
    assert sum(tracer.self_s) == tracer.named(tracer.total_s, "root")
    assert tracer.named(tracer.calls, "leaf_a") == 2
    assert tracer.nested_calls("leaf_a", "middle") == 1
    assert tracer.nested_calls("leaf_a", "root") == 1
    # One request: every span carries the root span's op id.
    assert set(tracer.span_op) == {0}
    assert list(tracer.span_parent) == [-1, 0, 1, 1, 0]


def test_failed_call_closes_its_span_and_skips_the_count_hook():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.enabled = True
    counted = []

    def boom():
        clock.t += 1.0
        raise ValueError

    wrapped = tracer.wrap(boom, "sim", "boom", lambda c, a, k, r: counted.append(r))
    try:
        wrapped()
    except ValueError:
        pass
    assert tracer.named(tracer.calls, "boom") == 1
    assert tracer.named(tracer.self_s, "boom") == 1.0
    assert not counted and not tracer._stack


def test_disabled_tracer_records_nothing():
    tracer = Tracer()
    wrapped = tracer.wrap(lambda: 7, "sim", "seven")
    assert wrapped() == 7
    assert len(tracer.span_name) == 0


def test_install_patches_every_binding_and_uninstall_restores_them():
    import repro.core.meteorograph as facade
    import repro.core.search as search
    import repro.core.search_batch as search_batch
    from repro.sim.network import Network

    original, send = search.retrieve, Network.__dict__["send"]
    tracer = Tracer()
    tracer.install([("search", search, "retrieve", None), ("network", Network, "send", None)])
    for mod in (search, search_batch, facade):
        assert mod.retrieve is not original, mod.__name__
    assert Network.__dict__["send"] is not send
    tracer.uninstall()
    for mod in (search, search_batch, facade):
        assert mod.retrieve is original
    assert Network.__dict__["send"] is send
