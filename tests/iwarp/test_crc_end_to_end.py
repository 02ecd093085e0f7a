"""End-to-end CRC protection: corrupted datagrams are detected and
dropped by the DDP-layer CRC32, never placed into memory."""

import pytest

from repro.core.verbs import RecvWR, RnicDevice, SendWR, Sge, WrOpcode
from repro.memory.region import Access
from repro.models.costs import zero_cost_model
from repro.simnet.engine import MS
from repro.simnet.loss import BitErrorModel
from repro.simnet.topology import build_testbed
from repro.transport.stacks import install_stacks


@pytest.fixture
def corrupt_world():
    tb = build_testbed(costs=zero_cost_model())
    nets = install_stacks(tb)
    devs = [RnicDevice(n) for n in nets]
    model = BitErrorModel(1.0, seed=4)  # corrupt every datagram
    nets[1].udp.corruption = model
    return tb, devs, model


def test_biterror_model_statistics():
    model = BitErrorModel(0.25, seed=9)
    changed = 0
    for _ in range(4000):
        data = b"\x00" * 64
        if model.apply(data) != data:
            changed += 1
    assert 0.2 < changed / 4000 < 0.3
    assert model.corrupted == changed


def test_biterror_never_mutates_original():
    model = BitErrorModel(1.0, seed=1)
    original = b"immutable-data"
    out = model.apply(original)
    assert original == b"immutable-data"
    assert out != original


def test_biterror_validation():
    with pytest.raises(ValueError):
        BitErrorModel(1.5)


def test_corrupted_send_dropped_by_crc(corrupt_world):
    tb, devs, model = corrupt_world
    pds = [d.alloc_pd() for d in devs]
    cqB = devs[1].create_cq()
    qpA = devs[0].create_ud_qp(pds[0], devs[0].create_cq(), port=9000)
    qpB = devs[1].create_ud_qp(pds[1], cqB, port=9001)
    dst = devs[1].reg_mr(64, Access.local_only(), pds[1])
    qpB.post_recv(RecvWR(sges=[Sge(dst)]))
    src = devs[0].reg_mr(bytearray(b"will-be-mangled"), Access.local_only(), pds[0])
    qpA.post_send(SendWR(
        opcode=WrOpcode.SEND, sges=[Sge(src)], dest=qpB.address, signaled=False,
    ))
    tb.sim.run(until=100 * MS)
    assert qpB.crc_drops == 1
    assert not cqB.poll()
    assert bytes(dst.view(0, 15)) == b"\x00" * 15  # nothing placed


def test_corrupted_write_record_never_touches_memory(corrupt_world):
    tb, devs, model = corrupt_world
    pds = [d.alloc_pd() for d in devs]
    cqB = devs[1].create_cq()
    qpA = devs[0].create_ud_qp(pds[0], devs[0].create_cq(), port=9000)
    qpB = devs[1].create_ud_qp(pds[1], cqB, port=9001)
    sink = devs[1].reg_mr(4096, Access.remote_write(), pds[1])
    src = devs[0].reg_mr(bytearray(b"Z" * 1000), Access.local_only(), pds[0])
    qpA.post_send(SendWR(
        opcode=WrOpcode.RDMA_WRITE_RECORD, sges=[Sge(src)],
        dest=qpB.address, remote_stag=sink.stag, remote_offset=0, signaled=False,
    ))
    tb.sim.run(until=100 * MS)
    assert qpB.crc_drops == 1
    assert bytes(sink.view(0, 1000)) == b"\x00" * 1000


def test_partial_corruption_rate_partially_delivers():
    tb = build_testbed(costs=zero_cost_model())
    nets = install_stacks(tb)
    devs = [RnicDevice(n) for n in nets]
    nets[1].udp.corruption = BitErrorModel(0.3, seed=3)
    pds = [d.alloc_pd() for d in devs]
    cqB = devs[1].create_cq()
    qpA = devs[0].create_ud_qp(pds[0], devs[0].create_cq(), port=9000)
    qpB = devs[1].create_ud_qp(pds[1], cqB, port=9001)
    dst = devs[1].reg_mr(64, Access.local_only(), pds[1])
    n = 60
    for _ in range(n):
        qpB.post_recv(RecvWR(sges=[Sge(dst)]))
    src = devs[0].reg_mr(bytearray(b"ok"), Access.local_only(), pds[0])
    for _ in range(n):
        qpA.post_send(SendWR(
            opcode=WrOpcode.SEND, sges=[Sge(src)], dest=qpB.address,
            signaled=False,
        ))
    tb.sim.run(until=500 * MS)
    delivered = cqB.completions_total
    assert delivered + qpB.crc_drops == n
    assert 0 < qpB.crc_drops < n
