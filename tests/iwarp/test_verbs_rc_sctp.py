"""RC-over-SCTP verbs tests (the standard's other LLP, RFC 5043 shape).

The RC suite in ``test_verbs_rc.py`` runs over SCTP as well as over
TCP+MPA; what stays here is specific to the SCTP LLP or to the choice
of LLP."""

import pytest

from repro.core.verbs import RecvWR, SendWR, Sge, WrOpcode
from repro.core.verbs.device import DeviceError
from repro.memory.region import Access
from repro.simnet.engine import SEC
from repro.simnet.loss import BernoulliLoss

from .test_verbs_rc import _establish, _poll


@pytest.fixture
def rc_sctp(zero_testbed, zero_devices):
    return _establish(zero_testbed, zero_devices, "sctp")


def test_unknown_transport_rejected(zero_devices):
    dev = zero_devices[0]
    with pytest.raises(DeviceError):
        dev.rc_connect((1, 1), 1, dev.create_cq(), transport="pigeon")
    with pytest.raises(DeviceError):
        dev.rc_listen(1, 1, dev.create_cq, transport="pigeon")


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
