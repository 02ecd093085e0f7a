"""Byte-exact golden vectors: one per wire layout.

Each header is declared once, as the ``struct.Struct`` of the module
that owns it.  These vectors pin what that declaration puts on the wire:
every vector is a hex literal written out from fixed field values, the
encoder must produce it byte for byte, and decoding it must give the
field values back.  Each field gets distinct byte values, so moving,
resizing or re-ordering any field fails here.

Field layouts follow RFC 5040/5041 (DDP/RDMAP), RFC 5044 (MPA) and the
paper's UD extension (§IV.B), except where the reproduction departs from
the RFCs on purpose; those places are named in the comments.  Changing
a layout's size moves ``sim_bytes`` and every outcome golden.
"""

import dataclasses

import pytest

from repro.core.ddp.headers import (
    DdpSegment, OP_SEND, OP_WRITE, OP_WRITE_RECORD, QN_SEND,
    decode_read_request, decode_segment, encode_read_request,
)
from repro.core.mpa.connection import OPERATIONAL, MpaConnection
from repro.core.mpa.fpdu import build_fpdu, parse_fpdu
from repro.core.mpa.markers import MarkedStreamReader, MarkedStreamWriter
from repro.core.socketif.interface import _DgramSocket
from repro.simnet.engine import SEC
from repro.transport.ip import IpStack
from repro.transport.rudp import (
    KIND_ACK, RUDP_HEADER, RudpSocket, decode_ack_payload, encode_ack,
)
from repro.transport.stacks import install_stacks
from repro.transport.udp import UdpStack

STAG = 0x0A0B0C0D
TO = 0x0102030405060708
QN, MSN, MO = QN_SEND, 0x11121314, 0x21222324
MSG_ID, MSG_TOTAL, MSG_OFFSET = 0x3132333435363738, 0x4142434445464748, 0x5152535455565758


# ----------------------------------------------------------------------
# DDP / RDMAP
# ----------------------------------------------------------------------

#: (segment, vector).  Control: flags (TAGGED 0x80, LAST 0x40, UDEXT
#: 0x20), then the RDMAP opcode; no DDP DV or RDMAP RV version bits.
#: Untagged: QN, MSN, MO only — 14 B with the control bytes, where
#: RFC 5041 has 18 B (it adds a 5 B RsvdULP field).
DDP_VECTORS = {
    "tagged": (
        DdpSegment(opcode=OP_WRITE, last=True, payload=b"", tagged=True,
                   stag=STAG, to=TO),
        "c000" "0a0b0c0d" "0102030405060708",
    ),
    "untagged": (
        DdpSegment(opcode=OP_SEND, last=False, payload=b"", qn=QN, msn=MSN, mo=MO),
        "0003" "00000000" "11121314" "21222324",
    ),
    "tagged+ud": (
        DdpSegment(opcode=OP_WRITE_RECORD, last=True, payload=b"", tagged=True,
                   stag=STAG, to=TO, msg_id=MSG_ID, msg_total=MSG_TOTAL,
                   msg_offset=MSG_OFFSET),
        "e008" "0a0b0c0d" "0102030405060708"
        "3132333435363738" "4142434445464748" "5152535455565758",
    ),
    "untagged+ud": (
        DdpSegment(opcode=OP_SEND, last=True, payload=b"", qn=QN, msn=MSN, mo=MO,
                   msg_id=MSG_ID, msg_total=MSG_TOTAL, msg_offset=MSG_OFFSET),
        "6003" "00000000" "11121314" "21222324"
        "3132333435363738" "4142434445464748" "5152535455565758",
    ),
}


@pytest.mark.parametrize("name", sorted(DDP_VECTORS))
def test_ddp_header_vector(name):
    seg, hexstr = DDP_VECTORS[name]
    vector = bytes.fromhex(hexstr)
    assert len(vector) == (38 if name.endswith("+ud") else 14)
    assert seg.encode() == vector
    assert seg.header_size == len(vector)
    assert decode_segment(vector, ud=seg.msg_id is not None) == seg


def test_ddp_payload_follows_the_header():
    seg, hexstr = DDP_VECTORS["untagged"]
    seg = dataclasses.replace(seg, payload=b"abc")
    assert seg.encode() == bytes.fromhex(hexstr + "616263")
    assert decode_segment(seg.encode()).payload == b"abc"


#: Sink STag, sink TO, read length, source STag, source TO (RFC 5040
#: §4.4).
READ_REQUEST = bytes.fromhex(
    "0a0b0c0d" "0102030405060708" "00010000" "1a1b1c1d" "1112131415161718"
)
READ_REQUEST_FIELDS = (STAG, TO, 0x10000, 0x1A1B1C1D, 0x1112131415161718)


def test_read_request_vector():
    assert len(READ_REQUEST) == 28
    assert encode_read_request(*READ_REQUEST_FIELDS) == READ_REQUEST
    assert decode_read_request(READ_REQUEST) == READ_REQUEST_FIELDS


# ----------------------------------------------------------------------
# MPA
# ----------------------------------------------------------------------

#: ULPDU b"abc": 2 B length, the ULPDU, 3 B of zero padding to a 4-byte
#: boundary, then the 4 B CRC trailer over everything before it.
FPDU_ABC = bytes.fromhex("0003" "616263" "000000" "5d0365cb")


def test_fpdu_vector():
    assert build_fpdu(b"abc") == FPDU_ABC
    assert parse_fpdu(FPDU_ABC, 0) == (b"abc", len(FPDU_ABC))
    assert build_fpdu(b"abc", crc_enabled=False) == FPDU_ABC[:-4]
    assert parse_fpdu(FPDU_ABC[:-4], 0, crc_enabled=False) == (b"abc", 8)


def test_marker_vector():
    """A 504 B FPDU opens the stream (marker at offset 0, pointer 0) and
    leaves the writer at 508, so the next FPDU straddles the 512-byte
    boundary: a marker pointing 4 bytes back to that FPDU's header is
    woven in after its first 4 bytes."""
    first = b"\x55" * 504
    writer = MarkedStreamWriter()
    head, n_head = writer.emit_fpdu(first)
    assert (head[:4], n_head, len(head)) == (bytes(4), 1, 508)
    wire, inserted = writer.emit_fpdu(FPDU_ABC)
    assert inserted == 1
    assert wire == bytes.fromhex("00036162" "00000004" "630000005d0365cb")

    reader = MarkedStreamReader()
    assert reader.feed(head + wire) == first + FPDU_ABC
    assert reader.last_marker_pointer == 4
    assert reader.markers_stripped == 2


def _tap(sock, method, log):
    """Record the bytes of every ``sock.<method>(data, ...)`` call."""
    inner = getattr(sock, method)

    def tapped(data, *args):
        log.append(bytes(data))
        return inner(data, *args)

    setattr(sock, method, tapped)
    return sock


def test_mpa_negotiation_vectors(zero_testbed):
    """Magic "MP", type (1 request, 2 reply), flags (markers 0x1, CRC
    0x2), 4 reserved zero bytes.  This is the reproduction's own 8-byte
    frame, not RFC 5044's 16-byte key plus 4-byte header."""
    nets = install_stacks(zero_testbed)
    sent_cli, sent_srv, srv = [], [], {}
    nets[1].tcp.listen(4000).on_accept = lambda sock: srv.setdefault(
        "mpa", MpaConnection(_tap(sock, "send", sent_srv), initiator=False)
    )
    cli_sock = _tap(nets[0].tcp.connect((1, 4000)), "send", sent_cli)
    cli = MpaConnection(cli_sock, initiator=True)
    zero_testbed.sim.run(until=1 * SEC)
    assert sent_cli == [bytes.fromhex("4d50" "01" "03" "00000000")]
    assert sent_srv == [bytes.fromhex("4d50" "02" "03" "00000000")]
    assert cli.state == srv["mpa"].state == OPERATIONAL


# ----------------------------------------------------------------------
# RUDP (the RD lower layer)
# ----------------------------------------------------------------------

def test_rudp_data_and_ack_vectors(zero_testbed):
    """DATA: kind 1 and the 64-bit sequence number (the first is 1),
    then the message.  ACK: kind 2, the cumulative sequence (next
    expected), the echo of the sequence that triggered it."""
    logs = ([], [])
    socks = []
    for host, log in zip(zero_testbed.hosts, logs):
        udp = UdpStack(host, IpStack(host))
        socks.append(RudpSocket(_tap(udp.socket(6000), "sendto", log)))
    got = []
    socks[1].on_message = lambda data, src: got.append(data)
    socks[0].sendto(b"abc", (1, 6000))
    zero_testbed.sim.run(until=1 * SEC)
    assert logs[0] == [bytes.fromhex("01" "0000000000000001" "616263")]
    assert got == [b"abc"]
    ack = bytes.fromhex("02" "0000000000000002" "0000000000000001")
    assert logs[1] == [ack]
    assert encode_ack(2, 1, []) == ack
    assert decode_ack_payload(ack[RUDP_HEADER:]) == (1, [])
    assert socks[0]._tx[(1, 6000)].unacked == {}  # the ACK was read


def test_rudp_sack_vector():
    """After the echo: a count byte, then inclusive [start, end] pairs."""
    vector = bytes.fromhex(
        "02" "0000000000000005" "0000000000000009"
        "02" "0000000000000007" "0000000000000009"
        "000000000000000b" "000000000000000c"
    )
    assert vector[0] == KIND_ACK
    assert encode_ack(5, 9, [(7, 9), (11, 12)]) == vector
    assert decode_ack_payload(vector[RUDP_HEADER:]) == (9, [(7, 9), (11, 12)])


# ----------------------------------------------------------------------
# Socket interface
# ----------------------------------------------------------------------

class _Ring:
    stag = 0x0A0B0C0D

    def __len__(self):
        return 0x0102030405060708


def test_ring_advertisement_reply_vector():
    """Type 2, the ring's STag, the ring's size in bytes."""
    vector = bytes.fromhex("02" "0a0b0c0d" "0102030405060708")
    peer = (1, 7000)
    sock = object.__new__(_DgramSocket)
    sock.iface = None
    sock._rings = {peer: {"mr": _Ring()}}
    sock._peer_sinks, sock._adv_waiters = {}, {}
    sent = []
    sock._post_untagged = lambda payload, addr: sent.append((payload, addr))
    sock._send_advertisement(peer)
    assert sent == [(vector, peer)]
    sock._dispatch_untagged(vector[0], vector[1:], peer)
    assert sock._peer_sinks[peer] == {
        "stag": 0x0A0B0C0D, "size": 0x0102030405060708, "cursor": 0,
    }
