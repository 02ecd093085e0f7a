"""Encode→decode round-trips for the DDP segment, the RDMA Read Request
and the MPA FPDU.

The golden vectors in ``tests/wire/`` pin one set of field values per
layout; these properties cover the whole field ranges: every encodable
segment, request and ULPDU must survive the trip through real bytes.
(The RUDP ACK round-trip lives in ``test_sack_roundtrip.py``.)
"""

from hypothesis import given, settings, strategies as st

from repro.core.ddp.headers import (
    OPCODE_NAMES, DdpSegment, decode_read_request, decode_segment,
    encode_read_request,
)
from repro.core.mpa.fpdu import MAX_ULPDU, build_fpdu, parse_fpdu

u32 = st.integers(min_value=0, max_value=2**32 - 1)
u64 = st.integers(min_value=0, max_value=2**64 - 1)


@st.composite
def segments(draw):
    tagged = draw(st.booleans())
    seg = DdpSegment(
        opcode=draw(st.sampled_from(sorted(OPCODE_NAMES))),
        last=draw(st.booleans()),
        payload=draw(st.binary(max_size=64)),
        tagged=tagged,
    )
    if tagged:
        seg.stag, seg.to = draw(u32), draw(u64)
    else:
        seg.qn, seg.msn, seg.mo = draw(u32), draw(u32), draw(u32)
    if draw(st.booleans()):  # with the UD extension header
        seg.msg_id, seg.msg_total, seg.msg_offset = draw(u64), draw(u64), draw(u64)
    return seg


@settings(max_examples=300, deadline=None)
@given(segments())
def test_ddp_segment_roundtrip(seg):
    wire = seg.encode()
    assert len(wire) == seg.wire_size
    assert decode_segment(wire, ud=True if seg.msg_id is not None else None) == seg


@settings(max_examples=200, deadline=None)
@given(u32, u64, u32, u32, u64)
def test_read_request_roundtrip(sink_stag, sink_to, length, src_stag, src_to):
    fields = (sink_stag, sink_to, length, src_stag, src_to)
    assert decode_read_request(encode_read_request(*fields)) == fields


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=2048), st.booleans(), st.binary(max_size=8))
def test_fpdu_roundtrip(ulpdu, crc_enabled, prefix):
    """Parsed at any offset, an FPDU yields its ULPDU and its own
    length, 4-byte aligned."""
    fpdu = build_fpdu(ulpdu, crc_enabled=crc_enabled)
    assert len(fpdu) % 4 == 0
    assert parse_fpdu(prefix + fpdu, len(prefix), crc_enabled=crc_enabled) == (
        ulpdu, len(fpdu),
    )


def test_fpdu_roundtrip_at_the_length_limit():
    ulpdu = bytes(range(256)) * (MAX_ULPDU // 256) + b"\x07" * (MAX_ULPDU % 256)
    fpdu = build_fpdu(ulpdu)
    assert parse_fpdu(fpdu, 0) == (ulpdu, len(fpdu))
