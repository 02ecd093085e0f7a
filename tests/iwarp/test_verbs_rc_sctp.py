"""RC-over-SCTP verbs tests (the standard's other LLP, RFC 5043 shape)."""

import pytest

from repro.core.verbs import RecvWR, SendWR, Sge, WrOpcode
from repro.core.verbs.device import DeviceError, RnicDevice
from repro.memory.region import Access
from repro.models.costs import zero_cost_model
from repro.obs import sim_registry
from repro.simnet.engine import MS, SEC
from repro.simnet.loss import BernoulliLoss
from repro.simnet.topology import build_testbed
from repro.transport.stacks import install_stacks

RUN_LIMIT = 600 * SEC


@pytest.fixture
def rc_sctp(zero_testbed, zero_devices):
    return _establish(zero_testbed, zero_devices)


@pytest.fixture
def rc_sctp_metrics():
    """The same pair on a testbed with the metrics registry enabled."""
    tb = build_testbed(2, costs=zero_cost_model(), metrics=True)
    return _establish(tb, [RnicDevice(n) for n in install_stacks(tb)])


def _establish(testbed, devices):
    devA, devB = devices
    pdA, pdB = devA.alloc_pd(), devB.alloc_pd()
    cqA, cqB = devA.create_cq(), devB.create_cq()
    listener = devB.rc_listen(4792, pdB, lambda: cqB, transport="sctp")
    qpA = devA.rc_connect((1, 4792), pdA, cqA, transport="sctp")
    accepted = listener.accept_future()
    testbed.sim.run_until(qpA.ready, limit=RUN_LIMIT)
    testbed.sim.run_until(accepted, limit=RUN_LIMIT)
    return dict(tb=testbed, sim=testbed.sim, devs=(devA, devB),
                pds=(pdA, pdB), cqs=(cqA, cqB), qps=(qpA, accepted.value))


def _poll(env, side, timeout=5000 * MS):
    fut = env["cqs"][side].poll_wait(timeout_ns=timeout)
    env["sim"].run_until(fut, limit=RUN_LIMIT)
    return fut.value


def test_unknown_transport_rejected(zero_devices):
    dev = zero_devices[0]
    with pytest.raises(DeviceError):
        dev.rc_connect((1, 1), 1, dev.create_cq(), transport="pigeon")
    with pytest.raises(DeviceError):
        dev.rc_listen(1, 1, dev.create_cq, transport="pigeon")


def test_establishment(rc_sctp):
    assert rc_sctp["qps"][0].state == "RTS"
    assert rc_sctp["qps"][1].state == "RTS"


def test_send_recv_multi_segment(rc_sctp):
    devA, devB = rc_sctp["devs"]
    size = 40_000
    payload = bytes((i * 5) & 0xFF for i in range(size))
    src = devA.reg_mr(bytearray(payload), Access.local_only(), rc_sctp["pds"][0])
    dst = devB.reg_mr(size, Access.local_only(), rc_sctp["pds"][1])
    rc_sctp["qps"][1].post_recv(RecvWR(sges=[Sge(dst)]))
    rc_sctp["qps"][0].post_send(SendWR(opcode=WrOpcode.SEND, sges=[Sge(src)]))
    wcs = _poll(rc_sctp, 1)
    assert wcs[0].ok and wcs[0].byte_len == size
    assert bytes(dst.view(0, size)) == payload


def test_rdma_write_placement(rc_sctp):
    devA, devB = rc_sctp["devs"]
    sink = devB.reg_mr(4096, Access.remote_write(), rc_sctp["pds"][1])
    src = devA.reg_mr(bytearray(b"over-sctp"), Access.local_only(), rc_sctp["pds"][0])
    rc_sctp["qps"][0].post_send(SendWR(
        opcode=WrOpcode.RDMA_WRITE, sges=[Sge(src)],
        remote_stag=sink.stag, remote_offset=64, signaled=False,
    ))
    rc_sctp["sim"].run(until=rc_sctp["sim"].now + 100 * MS)
    assert bytes(sink.view(64, 9)) == b"over-sctp"


def test_rdma_read(rc_sctp):
    devA, devB = rc_sctp["devs"]
    data = b"sctp-read" * 300
    region = devB.reg_mr(bytearray(data), Access.remote_read(), rc_sctp["pds"][1])
    sink = devA.reg_mr(len(data), Access.local_only(), rc_sctp["pds"][0])
    rc_sctp["qps"][0].post_send(SendWR(
        opcode=WrOpcode.RDMA_READ, sges=[Sge(sink)],
        remote_stag=region.stag, remote_offset=0,
    ))
    wcs = _poll(rc_sctp, 0)
    assert wcs[0].ok and bytes(sink.view()) == data


def test_reliable_under_loss(rc_sctp):
    devA, devB = rc_sctp["devs"]
    rc_sctp["tb"].set_egress_loss(0, BernoulliLoss(0.03, seed=7))
    size = 60_000
    payload = bytes((i * 9) & 0xFF for i in range(size))
    src = devA.reg_mr(bytearray(payload), Access.local_only(), rc_sctp["pds"][0])
    dst = devB.reg_mr(size, Access.local_only(), rc_sctp["pds"][1])
    rc_sctp["qps"][1].post_recv(RecvWR(sges=[Sge(dst)]))
    rc_sctp["qps"][0].post_send(SendWR(opcode=WrOpcode.SEND, sges=[Sge(src)]))
    wcs = _poll(rc_sctp, 1, timeout=60 * SEC)
    assert wcs and wcs[0].ok
    assert bytes(dst.view(0, size)) == payload


def test_no_posted_receive_is_fatal(rc_sctp):
    devA, _ = rc_sctp["devs"]
    src = devA.reg_mr(bytearray(b"x"), Access.local_only(), rc_sctp["pds"][0])
    rc_sctp["qps"][0].post_send(SendWR(
        opcode=WrOpcode.SEND, sges=[Sge(src)], signaled=False,
    ))
    rc_sctp["sim"].run(until=rc_sctp["sim"].now + 200 * MS)
    assert rc_sctp["qps"][1].state == "ERROR"
    assert rc_sctp["qps"][0].state == "ERROR"  # TERMINATE propagated


def test_terminate_on_shut_down_association_is_counted(rc_sctp_metrics):
    """A TERMINATE queued behind an application shutdown cannot leave:
    it is counted, never raised out of the event loop, and the QP still
    reaches ERROR."""
    rc_sctp = rc_sctp_metrics
    qp = rc_sctp["qps"][0]
    qp.assoc.shutdown()
    qp.terminate("local fatal error")
    assert qp.state == "ERROR"
    rc_sctp["sim"].run(until=rc_sctp["sim"].now + 200 * MS)
    assert qp.terminate_send_failures == 1
    snapshot = sim_registry(rc_sctp["sim"]).snapshot()
    key = f'verbs.qp.terminate_send_failures{{host="host0",qp="{qp.qp_num}"}}'
    assert snapshot[key] == 1
