"""Normalizing receiver semantics.

Each test hand-builds a small flow and checks what a strict endpoint
would deliver: which packets get dropped, how fragments and segments
reassemble, and which malformed flows are rejected outright.
"""

from dataclasses import astuple, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evasionlab.errors import IncompleteStreamError
from evasionlab.packets import IP_DF, IP_MF, FlowTrace, PacketRecord
from evasionlab.receiver import _claim, _reassemble_fragments, normalize_receive
from helpers import (
    SRC, SPORT, DST, DPORT, handshake_trace, make_fragment, make_ip, make_packet,
)


KEY = (SRC, SPORT, DST, DPORT)


def test_clean_flow_delivers_payload_in_order():
    trace = handshake_trace([b"hello ", b"world"])
    report = normalize_receive(trace)
    assert report.delivered == b"hello world"
    assert report.dropped_ip_checksum == 0
    assert report.dropped_ttl == 0
    assert report.dropped_tcp_checksum == 0
    # the empty SYN counts as an accepted segment too
    assert report.segments_accepted == 3


def test_bad_ip_checksum_dropped():
    # corrupting the final packet shortens the stream instead of
    # punching a hole, so delivery still succeeds without its bytes
    trace = handshake_trace([b"real", b"also"])
    bogus = trace.packets[2]
    bogus = replace(bogus, ip=replace(bogus.ip, checksum=bogus.ip.checksum ^ 0xFFFF))
    packets = [trace.packets[0], trace.packets[1], bogus]
    report = normalize_receive(FlowTrace(key=KEY, packets=packets))
    assert report.dropped_ip_checksum == 1
    assert report.delivered == b"real"


def test_mid_stream_ip_checksum_drop_leaves_fatal_hole():
    trace = handshake_trace([b"real", b"also"])
    bogus = trace.packets[1]
    bogus = replace(bogus, ip=replace(bogus.ip, checksum=bogus.ip.checksum ^ 0xFFFF))
    packets = [trace.packets[0], bogus, trace.packets[2]]
    with pytest.raises(IncompleteStreamError):
        normalize_receive(FlowTrace(key=KEY, packets=packets))


def test_hole_mid_stream_names_its_first_offset():
    trace = handshake_trace([b"AAAA", b"BBBBBB", b"CCC"])
    packets = [trace.packets[0], trace.packets[1], trace.packets[3]]
    with pytest.raises(IncompleteStreamError) as info:
        normalize_receive(FlowTrace(key=KEY, packets=packets))
    assert str(info.value) == "TCP stream has a hole at offset 4 of 13"


def test_fragment_group_with_a_hole_mid_datagram_cannot_complete():
    raw = make_packet(1001, b"0123456789abcdef").ip_payload()  # 20 + 16 bytes
    syn = handshake_trace([]).packets[0]
    head = make_fragment(40, 0, raw[:16], mf=True, ts=0.1)
    tail = make_fragment(40, 4, raw[32:], mf=False, ts=0.2)  # bytes 16-31 never arrive
    with pytest.raises(IncompleteStreamError) as info:
        normalize_receive(FlowTrace(key=KEY, packets=[syn, head, tail]))
    assert str(info.value) == "fragment group id=40 cannot be completed"


def test_chaff_duplicate_with_bad_checksum_ignored():
    trace = handshake_trace([b"AAAA", b"BBBB"])
    real = trace.packets[1]
    chaff = replace(real, ts=real.ts + 1e-5, payload=b"XXXX")
    chaff = replace(chaff, ip=replace(chaff.ip, checksum=0x0BAD))
    packets = list(trace.packets)
    packets.insert(2, chaff)
    report = normalize_receive(FlowTrace(key=KEY, packets=packets))
    assert report.dropped_ip_checksum == 1
    assert report.delivered == b"AAAABBBB"


def test_low_ttl_dropped_at_floor():
    trace = handshake_trace([b"keep"])
    dying = make_packet(1001 + 4, b"gone", ts=0.5, ttl=1, ident=9)
    packets = list(trace.packets) + [dying]
    report = normalize_receive(FlowTrace(key=KEY, packets=packets), ttl_floor=1)
    assert report.dropped_ttl == 1
    assert report.delivered == b"keep"


def test_ttl_just_above_floor_kept():
    trace = handshake_trace([b"keep"])
    ok = make_packet(1001 + 4, b"more", ts=0.5, ttl=2, ident=9)
    packets = list(trace.packets) + [ok]
    report = normalize_receive(FlowTrace(key=KEY, packets=packets), ttl_floor=1)
    assert report.dropped_ttl == 0
    assert report.delivered == b"keepmore"


def test_fragment_reassembly():
    trace = handshake_trace([b"0123456789abcdef"])  # 16-byte payload
    whole = trace.packets[1]
    raw = whole.ip_payload()  # 20 TCP header bytes + 16 payload
    f0 = make_fragment(whole.ip.identification, 0, raw[:24], mf=True, ts=0.1)
    f1 = make_fragment(whole.ip.identification, 3, raw[24:], mf=False, ts=0.1001)
    report = normalize_receive(FlowTrace(key=KEY, packets=[trace.packets[0], f0, f1]))
    assert report.fragments_reassembled == 1
    assert report.delivered == b"0123456789abcdef"


def test_reassembled_header_is_the_first_fragment_header_made_whole():
    # every field differs from the others, so a swapped constructor argument
    # shows; the TCP checksum covers neither TOS nor TTL
    raw = handshake_trace([b"0123456789abcdef"]).packets[1].ip_payload()
    options = bytes(range(1, 9))  # kept as raw bytes; nothing parses them

    def fragment(offset_units, data, flags, ts):
        ip = make_ip(len(data), ihl=7, tcp_len=0, ident=0x1234, ttl=57, tos=0x28,
                     flags=flags, offset=offset_units, options=options)
        return PacketRecord(ts=ts, ip=ip, tcp=None, payload=data).with_checksums()

    first = fragment(0, raw[:24], IP_DF | IP_MF, 0.1)
    last = fragment(3, raw[24:], IP_DF, 0.1001)
    packet = _reassemble_fragments([last, first])
    expected = replace(first.ip, flags=IP_DF, frag_offset=0,
                       total_length=first.ip.header_length + len(raw))
    assert astuple(packet.ip) == astuple(expected)
    assert packet.ip == expected and packet.ts == first.ts
    assert packet.tcp.encode() + packet.payload == raw


def test_fragment_hole_is_fatal():
    trace = handshake_trace([b"0123456789abcdef"])
    whole = trace.packets[1]
    raw = whole.ip_payload()
    f0 = make_fragment(whole.ip.identification, 0, raw[:24], mf=True, ts=0.1)
    f2 = make_fragment(whole.ip.identification, 4, raw[32:], mf=False, ts=0.1001)
    with pytest.raises(IncompleteStreamError):
        normalize_receive(FlowTrace(key=KEY, packets=[trace.packets[0], f0, f2]))


def test_overlapping_fragment_first_arrival_wins():
    trace = handshake_trace([b"0123456789abcdef"])
    whole = trace.packets[1]
    raw = whole.ip_payload()
    ident = whole.ip.identification
    f0 = make_fragment(ident, 0, raw[:24], mf=True, ts=0.1)
    # second fragment re-claims bytes 16..24 with junk before the real tail
    f1 = make_fragment(ident, 2, b"J" * 8 + raw[24:], mf=False, ts=0.1001)
    report = normalize_receive(FlowTrace(key=KEY, packets=[trace.packets[0], f0, f1]))
    assert report.delivered == b"0123456789abcdef"


def test_bad_tcp_checksum_dropped():
    trace = handshake_trace([b"good"])
    bogus = make_packet(1001, b"evil", ts=0.005, ident=8)
    bogus = replace(bogus, tcp=replace(bogus.tcp, checksum=bogus.tcp.checksum ^ 1))
    packets = [trace.packets[0], bogus, trace.packets[1]]
    report = normalize_receive(FlowTrace(key=KEY, packets=packets))
    assert report.dropped_tcp_checksum == 1
    assert report.delivered == b"good"


def test_segment_overlap_first_arrival_wins():
    # real segment lands first; a junk "retransmission" of the same
    # range arrives later and must not overwrite it
    trace = handshake_trace([b"AAAAAAAA", b"BBBBBBBB"])
    junk = make_packet(1001, b"XXXXXXXX", ts=0.015, ident=9)
    packets = list(trace.packets)
    packets.insert(2, junk)
    report = normalize_receive(FlowTrace(key=KEY, packets=packets))
    assert report.delivered == b"AAAAAAAA" + b"BBBBBBBB"


def test_junk_before_real_segment_loses_to_claimed_bytes():
    # junk claims [8, 16) first, then the real bytes arrive; first
    # arrival wins, so the junk stays. The flow still reassembles.
    trace = handshake_trace([b"AAAAAAAA", b"BBBBBBBB"])
    junk = make_packet(1001 + 8, b"XXXXXXXX", ts=0.012, ident=9)
    packets = [trace.packets[0], trace.packets[1], junk, trace.packets[2]]
    report = normalize_receive(FlowTrace(key=KEY, packets=packets))
    assert report.delivered == b"AAAAAAAA" + b"XXXXXXXX"


def test_stale_pre_isn_segment_ignored():
    trace = handshake_trace([b"live"])
    stale = make_packet(1001 - 100, b"old!", ts=0.004, ident=9)
    packets = [trace.packets[0], stale, trace.packets[1]]
    report = normalize_receive(FlowTrace(key=KEY, packets=packets))
    assert report.delivered == b"live"


def test_flow_without_syn_rejected():
    pkt = make_packet(500, b"data")
    with pytest.raises(IncompleteStreamError):
        normalize_receive(FlowTrace(key=KEY, packets=[pkt]))


def test_syn_with_data_starts_stream():
    syn = make_packet(1000, b"fast", syn=True, ts=0.0)
    follow = make_packet(1001 + 4, b"open", ts=0.01, ident=8)
    report = normalize_receive(FlowTrace(key=KEY, packets=[syn, follow]))
    assert report.delivered == b"fastopen"


def test_sequence_wraparound():
    isn = 2**32 - 3
    syn = make_packet(isn, b"", syn=True, ts=0.0, ident=1)
    first = make_packet(isn + 1, b"abcd", ts=0.01, ident=2)
    second = make_packet((isn + 5) % 2**32, b"efgh", ts=0.02, ident=3)
    report = normalize_receive(FlowTrace(key=KEY, packets=[syn, first, second]))
    assert report.delivered == b"abcdefgh"


def test_gap_in_stream_is_fatal():
    syn = make_packet(1000, b"", syn=True, ts=0.0, ident=1)
    far = make_packet(1001 + 50, b"island", ts=0.01, ident=2)
    with pytest.raises(IncompleteStreamError):
        normalize_receive(FlowTrace(key=KEY, packets=[syn, far]))


def claim_bytewise(buf, have, start, data):
    """First arrival wins, one byte at a time: the reference for _claim."""
    end = start + len(data)
    if end > len(buf):
        buf.extend(bytes(end - len(buf)))
        have.extend(bytes(end - len(have)))
    for i, byte in enumerate(data):
        if not have[start + i]:
            buf[start + i] = byte
            have[start + i] = 1


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 48), st.binary(max_size=24)), max_size=10))
def test_claim_matches_bytewise_first_arrival(claims):
    buf, have = bytearray(), bytearray()
    ref_buf, ref_have = bytearray(), bytearray()
    for start, data in claims:
        _claim(buf, have, start, data)
        claim_bytewise(ref_buf, ref_have, start, data)
        assert (buf, have) == (ref_buf, ref_have)
