"""Registry semantics: naming scheme, collisions, reset, disabled mode,
exposed component counters."""

import pytest

from repro.obs import (
    NULL_INSTRUMENT, Registry, RegistryError, diff, sim_registry,
    validate_name,
)


class _Port:
    """A small owner object with every shape of exported field."""

    OBS_FIELDS = (
        ("simnet.port.tx_frames", "counter", "tx_frames"),
        ("simnet.port.queue_hwm", "gauge", "queue.hwm"),
        ("simnet.port.frames", "counter", "rx_frames", {"dir": "rx"}),
        ("simnet.port.drops", "counter", "drops", "cause"),
        ("simnet.faults.", "counter", "faults"),
        ("simnet.port.absent", "counter", "absent"),
    )

    def __init__(self):
        self.tx_frames = 0
        self.queue = type("Queue", (), {"hwm": 3})()
        self.rx_frames = 2
        self.drops = {"full": 1, "loss": 4}
        self.faults = {"seen": 9}
        self.absent = None


# ---------------------------------------------------------------------------
# Naming scheme (the runtime side of iwarplint's IW501)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", [
    "verbs.qp.posts",
    "transport.rudp.retransmissions",
    "simnet.port.queue_hwm",
    "obs.registry.self_test",
    "rdmap.write_record.placed_bytes",
])
def test_valid_names_accepted(name):
    assert validate_name(name) == name


@pytest.mark.parametrize("name", [
    "verbs.posts",            # only two segments
    "qp.posts.total",         # unknown layer
    "Verbs.qp.posts",         # uppercase
    "verbs.qp.",              # trailing dot
    "verbs..posts",           # empty segment
    "verbs.qp.posts-total",   # illegal character
])
def test_bad_names_rejected(name):
    with pytest.raises(RegistryError):
        validate_name(name)
    reg = Registry(enabled=True)
    with pytest.raises(RegistryError):
        reg.counter(name)


# ---------------------------------------------------------------------------
# Collisions
# ---------------------------------------------------------------------------


def test_kind_collision_raises():
    reg = Registry(enabled=True)
    reg.counter("verbs.qp.posts")
    with pytest.raises(RegistryError):
        reg.gauge("verbs.qp.posts")


def test_histogram_edge_collision_raises():
    reg = Registry(enabled=True)
    reg.histogram("verbs.cq.poll_batch", buckets=(1, 2, 4))
    with pytest.raises(RegistryError):
        reg.histogram("verbs.cq.poll_batch", buckets=(1, 2, 8))
    # Same edges: same instrument, no error.
    reg.histogram("verbs.cq.poll_batch", buckets=(1, 2, 4))


def test_same_name_different_labels_are_distinct_series():
    reg = Registry(enabled=True)
    reg.counter("verbs.qp.posts", qp="1").inc(3)
    reg.counter("verbs.qp.posts", qp="2").inc(5)
    snap = reg.snapshot()
    assert snap['verbs.qp.posts{qp="1"}'] == 3
    assert snap['verbs.qp.posts{qp="2"}'] == 5


def test_label_order_is_canonical():
    reg = Registry(enabled=True)
    a = reg.counter("verbs.qp.posts", qp="1", host="h0")
    b = reg.counter("verbs.qp.posts", host="h0", qp="1")
    assert a is b


# ---------------------------------------------------------------------------
# Disabled mode (~zero cost)
# ---------------------------------------------------------------------------


def test_disabled_registry_hands_out_null_instruments():
    reg = Registry(enabled=False)
    c = reg.counter("verbs.qp.posts")
    assert c is NULL_INSTRUMENT
    assert reg.gauge("simnet.port.queue_hwm") is NULL_INSTRUMENT
    assert reg.histogram("verbs.cq.poll_batch") is NULL_INSTRUMENT
    c.inc()
    c.inc(10)
    reg.expose(_Port(), {}, _Port.OBS_FIELDS)
    assert reg.collect() == []
    assert reg.snapshot() == {}
    # Disabled registries keep no references into the stack.
    assert reg._exposed == []
    assert reg._instruments == {}


def test_disabled_registry_skips_name_validation_cost_path():
    # Bad names are only caught when enabled — a disabled registry
    # returns the null instrument before touching the name.  (IW501
    # still catches the literal statically.)
    reg = Registry(enabled=False)
    assert reg.counter("not a name") is NULL_INSTRUMENT


# ---------------------------------------------------------------------------
# Reset semantics
# ---------------------------------------------------------------------------


def test_reset_zeroes_values_keeps_registrations():
    reg = Registry(enabled=True)
    reg.counter("verbs.qp.posts").inc(7)
    reg.gauge("simnet.port.queue_hwm").set(9)
    reg.histogram("verbs.cq.poll_batch", buckets=(1, 4)).observe(2)
    reg.reset()
    snap = reg.snapshot()
    assert snap["verbs.qp.posts"] == 0
    assert snap["simnet.port.queue_hwm"] == 0
    assert snap["verbs.cq.poll_batch"]["count"] == 0
    # Registrations survive: the kind map still detects collisions.
    with pytest.raises(RegistryError):
        reg.gauge("verbs.qp.posts")


def test_reset_does_not_touch_collector_backed_values():
    reg = Registry(enabled=True)
    port = _Port()
    reg.expose(port, {}, _Port.OBS_FIELDS)
    port.tx_frames = 5
    reg.reset()
    assert reg.snapshot()["simnet.port.tx_frames"] == 5
    assert port.tx_frames == 5


# ---------------------------------------------------------------------------
# expose(): declared fields read at snapshot time
# ---------------------------------------------------------------------------


def test_expose_reads_declared_fields_at_snapshot_time():
    reg = Registry(enabled=True)
    port = _Port()
    reg.expose(port, {"port": "p0"}, _Port.OBS_FIELDS)
    port.tx_frames = 7  # pulled when snapshotted, not when exposed
    assert reg.snapshot() == {
        'simnet.faults.seen{port="p0"}': 9,
        'simnet.port.drops{cause="full",port="p0"}': 1,
        'simnet.port.drops{cause="loss",port="p0"}': 4,
        'simnet.port.frames{dir="rx",port="p0"}': 2,
        'simnet.port.queue_hwm{port="p0"}': 3,
        'simnet.port.tx_frames{port="p0"}': 7,
    }
    kinds = {s.name: s.kind for s in reg.collect()}
    assert kinds["simnet.port.queue_hwm"] == "gauge"
    assert kinds["simnet.port.tx_frames"] == "counter"


def test_expose_validates_names_at_snapshot_time():
    reg = Registry(enabled=True)
    reg.expose(_Port(), {}, (("port.tx_frames", "counter", "tx_frames"),))
    with pytest.raises(RegistryError):
        reg.snapshot()


# ---------------------------------------------------------------------------
# snapshot / diff
# ---------------------------------------------------------------------------


def test_snapshot_prefix_filter():
    reg = Registry(enabled=True)
    reg.counter("verbs.qp.posts").inc()
    reg.counter("transport.rudp.retransmissions").inc()
    assert list(reg.snapshot("verbs.")) == ["verbs.qp.posts"]


def test_diff_counts_new_keys_from_zero_and_drops_vanished():
    before = {"verbs.qp.posts": 2, "verbs.qp.gone": 9}
    after = {"verbs.qp.posts": 5, "verbs.qp.new": 3}
    d = diff(before, after)
    assert d == {"verbs.qp.posts": 3, "verbs.qp.new": 3}


def test_diff_histograms_bucketwise():
    reg = Registry(enabled=True)
    h = reg.histogram("verbs.cq.poll_batch", buckets=(1, 4))
    h.observe(1)
    before = reg.snapshot()
    h.observe(3)
    h.observe(100)
    d = diff(before, reg.snapshot())
    hd = d["verbs.cq.poll_batch"]
    assert hd["count"] == 2
    assert hd["sum"] == pytest.approx(103)
    assert hd["buckets"] == [[1.0, 0], [4.0, 1], ["+Inf", 2]]


# ---------------------------------------------------------------------------
# Per-simulator attachment
# ---------------------------------------------------------------------------


def test_sim_registry_first_caller_pins_enabled_state():
    class FakeSim:
        obs_registry = None

    sim = FakeSim()
    reg = sim_registry(sim, enable=True)
    assert reg.enabled
    # Later callers share the instance; a conflicting `enable` does not
    # flip an already-created registry.
    assert sim_registry(sim, enable=False) is reg
    assert reg.enabled
