"""Connected (RC) verbs tests: the traditional iWARP baseline.

Every test runs over both LLPs: the plain classes over TCP+MPA, the
``...OverSctp`` subclasses at the end over SCTP (the same QP, minus
MPA)."""

import pytest

from repro.core.ddp.headers import DdpSegment, OP_SEND, QN_SEND
from repro.core.verbs import (
    QpError, RecvWR, SendWR, Sge, WcStatus, WrOpcode,
)
from repro.core.verbs.device import RnicDevice
from repro.memory.region import Access
from repro.models.costs import zero_cost_model
from repro.obs import sim_registry
from repro.simnet.engine import MS, SEC
from repro.simnet.topology import build_testbed
from repro.transport.stacks import install_stacks

RUN_LIMIT = 600 * SEC


@pytest.fixture
def transport():
    """The LLP under test; the ``...OverSctp`` classes below override it."""
    return "tcp"


@pytest.fixture
def rc(zero_testbed, zero_devices, transport):
    """An established RC pair (host0 active, host1 passive)."""
    return _establish(zero_testbed, zero_devices, transport)


@pytest.fixture
def rc_metrics(transport):
    """The same RC pair on a testbed with the metrics registry enabled."""
    tb = build_testbed(2, costs=zero_cost_model(), metrics=True)
    return _establish(tb, [RnicDevice(n) for n in install_stacks(tb)], transport)


def _establish(testbed, devices, transport):
    devA, devB = devices
    pdA, pdB = devA.alloc_pd(), devB.alloc_pd()
    cqA, cqB = devA.create_cq(), devB.create_cq()
    listener = devB.rc_listen(4791, pdB, lambda: cqB, transport=transport)
    qpA = devA.rc_connect((1, 4791), pdA, cqA, transport=transport)
    accepted = listener.accept_future()
    testbed.sim.run_until(qpA.ready, limit=RUN_LIMIT)
    testbed.sim.run_until(accepted, limit=RUN_LIMIT)
    return {
        "tb": testbed, "sim": testbed.sim,
        "devs": (devA, devB), "pds": (pdA, pdB),
        "cqs": (cqA, cqB), "qps": (qpA, accepted.value),
    }


def _poll(env, side, timeout=5000 * MS):
    fut = env["cqs"][side].poll_wait(timeout_ns=timeout)
    env["sim"].run_until(fut, limit=RUN_LIMIT)
    return fut.value


class TestConnection:
    def test_establishment(self, rc, transport):
        for qp in rc["qps"]:
            assert qp.state == "RTS"
            assert qp.llp.proto == transport

    def test_connect_to_missing_listener_never_ready(
        self, zero_testbed, zero_devices, transport
    ):
        devA, _ = zero_devices
        pd = devA.alloc_pd()
        qp = devA.rc_connect((1, 9999), pd, devA.create_cq(), transport=transport)
        zero_testbed.sim.run(until=5 * SEC)
        assert not qp.ready.done or qp.ready.value is None

    def test_multiple_connections_same_listener(
        self, zero_testbed, zero_devices, transport
    ):
        devA, devB = zero_devices
        pdA, pdB = devA.alloc_pd(), devB.alloc_pd()
        devB.rc_listen(4791, pdB, devB.create_cq, transport=transport)
        qps = [
            devA.rc_connect((1, 4791), pdA, devA.create_cq(), transport=transport)
            for _ in range(3)
        ]
        for qp in qps:
            zero_testbed.sim.run_until(qp.ready, limit=RUN_LIMIT)
            assert qp.state == "RTS"

    def test_terminate_on_half_closed_stream_is_counted(self, rc_metrics):
        """A TERMINATE queued after the application closed the LLP (a
        half-closed TCP stream, a shut-down SCTP association) cannot
        leave: it is counted, never raised out of the event loop, and
        the QP still reaches ERROR."""
        rc = rc_metrics
        qp = rc["qps"][0]
        qp.llp.close()
        qp.terminate("local fatal error")
        assert qp.state == "ERROR"
        rc["sim"].run(until=rc["sim"].now + 1 * SEC)
        assert qp.terminate_send_failures == 1
        snapshot = sim_registry(rc["sim"]).snapshot()
        key = f'verbs.qp.terminate_send_failures{{host="host0",qp="{qp.qp_num}"}}'
        assert snapshot[key] == 1


class TestSendRecv:
    def test_in_order_delivery(self, rc):
        devA, devB = rc["devs"]
        dst = devB.reg_mr(1024, Access.local_only(), rc["pds"][1])
        for _ in range(3):
            rc["qps"][1].post_recv(RecvWR(sges=[Sge(dst)]))
        for i in range(3):
            src = devA.reg_mr(
                bytearray(f"msg-{i}".encode()), Access.local_only(), rc["pds"][0]
            )
            rc["qps"][0].post_send(SendWR(
                opcode=WrOpcode.SEND, sges=[Sge(src)], signaled=False,
            ))
        lens = []
        for i in range(3):
            wcs = _poll(rc, 1)
            assert wcs[0].ok
            lens.append(wcs[0].byte_len)
            # The last-arrived message overwrote dst each time (single
            # buffer reused): in-order semantics give deterministic final
            # content.
        assert bytes(dst.view(0, 5)) == b"msg-2"

    def test_multi_segment_send(self, rc):
        devA, devB = rc["devs"]
        size = 50_000  # > MULPDU: many DDP segments over MPA
        payload = bytes((i * 11) & 0xFF for i in range(size))
        src = devA.reg_mr(bytearray(payload), Access.local_only(), rc["pds"][0])
        dst = devB.reg_mr(size, Access.local_only(), rc["pds"][1])
        rc["qps"][1].post_recv(RecvWR(sges=[Sge(dst)]))
        rc["qps"][0].post_send(SendWR(opcode=WrOpcode.SEND, sges=[Sge(src)]))
        wcs = _poll(rc, 1)
        assert wcs[0].ok and wcs[0].byte_len == size
        assert bytes(dst.view(0, size)) == payload

    def test_no_posted_receive_is_fatal_on_rc(self, rc):
        """The §IV.B item 2 relaxation is UD-only: on RC an unmatched
        untagged arrival errors the stream."""
        devA, _ = rc["devs"]
        src = devA.reg_mr(bytearray(b"x"), Access.local_only(), rc["pds"][0])
        rc["qps"][0].post_send(SendWR(
            opcode=WrOpcode.SEND, sges=[Sge(src)], signaled=False,
        ))
        rc["sim"].run(until=rc["sim"].now + 200 * MS)
        assert rc["qps"][1].state == "ERROR"
        # The terminate propagates back and errors the initiator too.
        assert rc["qps"][0].state == "ERROR"

    def test_ud_extension_on_rc_send_terminates(self, rc):
        """On RC only Write-Record carries the UD extension header: a
        SEND with it is a malformed segment, not a delivered message."""
        dst = rc["devs"][1].reg_mr(64, Access.local_only(), rc["pds"][1])
        rc["qps"][1].post_recv(RecvWR(sges=[Sge(dst)]))
        rogue = DdpSegment(opcode=OP_SEND, last=True, payload=b"x",
                           qn=QN_SEND, msn=1, msg_id=1, msg_total=1)
        rc["qps"][0].llp.send(rogue.encode())
        rc["sim"].run(until=rc["sim"].now + 200 * MS)
        assert rc["qps"][1].state == "ERROR"
        assert rc["qps"][1].terminate_reason == "malformed DDP segment"

    def test_write_record_keeps_its_ud_extension_on_rc(self, rc):
        """Write-Record is valid over a reliable transport (§IV.B.3) and
        is the one RC operation whose segments carry the extension."""
        devA, devB = rc["devs"]
        sink = devB.reg_mr(1024, Access.remote_write(), rc["pds"][1])
        src = devA.reg_mr(bytearray(b"record"), Access.local_only(), rc["pds"][0])
        rc["qps"][0].post_send(SendWR(
            opcode=WrOpcode.RDMA_WRITE_RECORD, sges=[Sge(src)],
            remote_stag=sink.stag, remote_offset=0, signaled=False,
        ))
        wcs = _poll(rc, 1)
        assert wcs[0].ok and wcs[0].opcode is WrOpcode.RDMA_WRITE_RECORD
        assert bytes(sink.view(0, 6)) == b"record"
        assert rc["qps"][1].state == "RTS"

    def test_post_on_errored_qp_rejected(self, rc):
        devA, _ = rc["devs"]
        rc["qps"][0]._enter_error("test")
        src = devA.reg_mr(bytearray(b"x"), Access.local_only(), rc["pds"][0])
        with pytest.raises(QpError):
            rc["qps"][0].post_send(SendWR(opcode=WrOpcode.SEND, sges=[Sge(src)]))

    def test_flush_on_error_completes_recvs(self, rc):
        devB = rc["devs"][1]
        dst = devB.reg_mr(64, Access.local_only(), rc["pds"][1])
        rc["qps"][1].post_recv(RecvWR(sges=[Sge(dst)]))
        rc["qps"][1]._enter_error("test")
        wcs = rc["cqs"][1].poll()
        assert wcs and wcs[0].status is WcStatus.FLUSHED

    def test_dest_address_rejected_on_rc(self, rc):
        devA, _ = rc["devs"]
        src = devA.reg_mr(bytearray(b"x"), Access.local_only(), rc["pds"][0])
        with pytest.raises(QpError):
            rc["qps"][0].post_send(SendWR(
                opcode=WrOpcode.SEND, sges=[Sge(src)], dest=(1, 1),
            ))


class TestRdmaWrite:
    def test_silent_placement(self, rc):
        devA, devB = rc["devs"]
        sink = devB.reg_mr(4096, Access.remote_write(), rc["pds"][1])
        payload = b"one-sided" * 100
        src = devA.reg_mr(bytearray(payload), Access.local_only(), rc["pds"][0])
        rc["qps"][0].post_send(SendWR(
            opcode=WrOpcode.RDMA_WRITE, sges=[Sge(src)],
            remote_stag=sink.stag, remote_offset=128, signaled=False,
        ))
        rc["sim"].run(until=rc["sim"].now + 100 * MS)
        assert bytes(sink.view(128, len(payload))) == payload
        # Truly silent: no completion at the target.
        assert rc["cqs"][1].poll() == []

    def test_write_then_notify_send(self, rc):
        """Fig. 3 top: RC Write visibility via a follow-up send."""
        devA, devB = rc["devs"]
        sink = devB.reg_mr(1024, Access.remote_write(), rc["pds"][1])
        src = devA.reg_mr(bytearray(b"VALID"), Access.local_only(), rc["pds"][0])
        rc["qps"][1].post_recv(RecvWR(sges=[]))
        rc["qps"][0].post_send(SendWR(
            opcode=WrOpcode.RDMA_WRITE, sges=[Sge(src)],
            remote_stag=sink.stag, remote_offset=0, signaled=False,
        ))
        rc["qps"][0].post_send(SendWR(opcode=WrOpcode.SEND, sges=[], signaled=False))
        wcs = _poll(rc, 1)
        assert wcs[0].ok
        # In-order RC guarantees the write landed before the send.
        assert bytes(sink.view(0, 5)) == b"VALID"

    def test_write_protection_error_terminates(self, rc):
        devA, devB = rc["devs"]
        sink = devB.reg_mr(64, Access.local_only(), rc["pds"][1])
        src = devA.reg_mr(bytearray(b"x"), Access.local_only(), rc["pds"][0])
        rc["qps"][0].post_send(SendWR(
            opcode=WrOpcode.RDMA_WRITE, sges=[Sge(src)],
            remote_stag=sink.stag, remote_offset=0, signaled=False,
        ))
        rc["sim"].run(until=rc["sim"].now + 200 * MS)
        assert rc["qps"][1].state == "ERROR"
        assert rc["qps"][1].rx.remote_access_errors == 1

    def test_memory_flag_watch_detects_completion(self, rc):
        """The §IV.B.3 'flagged bit in memory that is polled upon'."""
        devA, devB = rc["devs"]
        sink = devB.reg_mr(1000, Access.remote_write(), rc["pds"][1])
        fired = []
        sink.add_write_watch(999, 1, lambda off, ln: fired.append(rc["sim"].now))
        src = devA.reg_mr(bytearray(1000), Access.local_only(), rc["pds"][0])
        rc["qps"][0].post_send(SendWR(
            opcode=WrOpcode.RDMA_WRITE, sges=[Sge(src)],
            remote_stag=sink.stag, remote_offset=0, signaled=False,
        ))
        rc["sim"].run(until=rc["sim"].now + 100 * MS)
        assert len(fired) == 1


class TestRdmaRead:
    def test_basic_read(self, rc):
        devA, devB = rc["devs"]
        data = b"read-me" * 64
        region = devB.reg_mr(bytearray(data), Access.remote_read(), rc["pds"][1])
        sink = devA.reg_mr(len(data), Access.local_only(), rc["pds"][0])
        rc["qps"][0].post_send(SendWR(
            opcode=WrOpcode.RDMA_READ, sges=[Sge(sink)],
            remote_stag=region.stag, remote_offset=0,
        ))
        wcs = _poll(rc, 0)
        assert wcs[0].ok and wcs[0].opcode is WrOpcode.RDMA_READ
        assert bytes(sink.view()) == data

    def test_read_at_offset(self, rc):
        devA, devB = rc["devs"]
        region = devB.reg_mr(bytearray(b"0123456789"), Access.remote_read(), rc["pds"][1])
        sink = devA.reg_mr(4, Access.local_only(), rc["pds"][0])
        rc["qps"][0].post_send(SendWR(
            opcode=WrOpcode.RDMA_READ, sges=[Sge(sink)],
            remote_stag=region.stag, remote_offset=3,
        ))
        wcs = _poll(rc, 0)
        assert wcs[0].ok and bytes(sink.view()) == b"3456"

    def test_large_read_multi_segment(self, rc):
        devA, devB = rc["devs"]
        size = 40_000
        data = bytes((7 * i) & 0xFF for i in range(size))
        region = devB.reg_mr(bytearray(data), Access.remote_read(), rc["pds"][1])
        sink = devA.reg_mr(size, Access.local_only(), rc["pds"][0])
        rc["qps"][0].post_send(SendWR(
            opcode=WrOpcode.RDMA_READ, sges=[Sge(sink)],
            remote_stag=region.stag, remote_offset=0,
        ))
        wcs = _poll(rc, 0)
        assert wcs[0].ok and bytes(sink.view()) == data

    def test_read_without_remote_read_right_terminates(self, rc):
        devA, devB = rc["devs"]
        region = devB.reg_mr(64, Access.local_only(), rc["pds"][1])
        sink = devA.reg_mr(64, Access.local_only(), rc["pds"][0])
        rc["qps"][0].post_send(SendWR(
            opcode=WrOpcode.RDMA_READ, sges=[Sge(sink)],
            remote_stag=region.stag, remote_offset=0,
        ))
        rc["sim"].run(until=rc["sim"].now + 200 * MS)
        assert rc["qps"][1].state == "ERROR"

    def test_read_sink_needs_local_write(self, rc):
        devA, devB = rc["devs"]
        region = devB.reg_mr(64, Access.remote_read(), rc["pds"][1])
        # A read-only sink is rejected locally before any wire traffic.
        ro = devA.registry.register(bytearray(64), Access.LOCAL_READ, rc["pds"][0])
        rc["qps"][0].post_send(SendWR(
            opcode=WrOpcode.RDMA_READ, sges=[Sge(ro)],
            remote_stag=region.stag, remote_offset=0,
        ))
        wcs = _poll(rc, 0)
        assert wcs[0].status is WcStatus.LOCAL_PROTECTION_ERROR


class _OverSctp:
    @pytest.fixture
    def transport(self):
        return "sctp"


class TestConnectionOverSctp(_OverSctp, TestConnection):
    pass


class TestSendRecvOverSctp(_OverSctp, TestSendRecv):
    pass


class TestRdmaWriteOverSctp(_OverSctp, TestRdmaWrite):
    pass


class TestRdmaReadOverSctp(_OverSctp, TestRdmaRead):
    pass
