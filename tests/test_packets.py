"""Header encode/decode round-trips, field validation and frozen copies."""

import dataclasses
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evasionlab.packets import (
    IP_DF,
    IP_MF,
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_RST,
    TCP_SYN,
    TCP_URG,
    Ipv4Header,
    PacketRecord,
    TcpHeader,
    evolve,
)
from helpers import (
    addr_to_str,
    flow_key_of,
    make_fragment,
    make_ip,
    make_packet,
    option_blocks,
    random_packets,
    str_to_addr,
)


# -- addresses --------------------------------------------------------------


def test_addr_str_known():
    assert addr_to_str(0x0A000001) == "10.0.0.1"
    assert str_to_addr("192.168.0.9") == 0xC0A80009


@given(st.integers(0, 2**32 - 1))
def test_addr_round_trip(addr):
    assert str_to_addr(addr_to_str(addr)) == addr


# -- IPv4 header ------------------------------------------------------------


def test_ipv4_encode_layout():
    hdr = make_ip(4)  # ihl 5, DF, ttl 64, proto 6
    raw = hdr.with_checksum().encode()
    assert len(raw) == 20
    assert raw[0] == 0x45  # version 4, ihl 5
    assert raw[8] == 64
    assert raw[9] == 6
    assert raw[12:16] == bytes([10, 0, 0, 1])


def test_ipv4_round_trip_with_options():
    opts = bytes([1, 7, 7, 4, 0, 0, 0, 0])
    hdr = make_ip(0, ihl=7, options=opts).with_checksum()
    back = Ipv4Header.decode(hdr.encode())
    assert back == hdr
    assert back.options == opts
    assert back.header_length == 28


def test_ipv4_ihl_bounds():
    with pytest.raises(ValueError):
        make_ip(0, ihl=4)
    with pytest.raises(ValueError):
        make_ip(0, ihl=16, options=bytes(44))


def test_ipv4_options_length_must_match_ihl():
    with pytest.raises(ValueError):
        make_ip(0, ihl=6, options=b"\x01")


def test_fragment_past_datagram_limit():
    with pytest.raises(ValueError):
        make_ip(1400, tcp_len=0, flags=0, offset=8100)


def test_checksum_valid_flag():
    hdr = make_ip(4)
    assert not hdr.checksum_valid()
    assert hdr.with_checksum().checksum_valid()


@st.composite
def ipv4_headers(draw):
    opt_words = draw(st.integers(0, 3))
    ihl = 5 + opt_words
    payload = draw(st.integers(0, 600))
    return Ipv4Header(
        ihl=ihl,
        tos=draw(st.integers(0, 255)),
        total_length=ihl * 4 + payload,
        identification=draw(st.integers(0, 0xFFFF)),
        flags=draw(st.integers(0, 7)),
        frag_offset=draw(st.integers(0, 100)),
        ttl=draw(st.integers(0, 255)),
        protocol=6,
        checksum=draw(st.integers(0, 0xFFFF)),
        src_addr=draw(st.integers(0, 2**32 - 1)),
        dst_addr=draw(st.integers(0, 2**32 - 1)),
        options=bytes(draw(st.binary(min_size=opt_words * 4, max_size=opt_words * 4))),
    )


@given(ipv4_headers())
def test_ipv4_round_trip(hdr):
    assert Ipv4Header.decode(hdr.encode()) == hdr


def test_ip_flags_sit_above_the_fragment_offset():
    raw = make_ip(0, flags=IP_DF | IP_MF | 4, offset=0x1ABC).encode()
    assert struct.unpack_from("!H", raw, 6)[0] == 0xFABC
    assert (IP_MF, IP_DF) == (1, 2)


def test_header_flags_must_fit_their_field():
    for flags in (-1, 8):
        with pytest.raises(ValueError):
            make_ip(0, flags=flags)
    for flags in (-1, 0x1000):
        with pytest.raises(ValueError):
            TcpHeader(src_port=1, dst_port=2, seq=0, ack=0, data_offset=5, flags=flags)


# -- TCP options ------------------------------------------------------------

MSS_1460 = b"\x02\x04\x05\xb4"


def test_mss_option_bytes():
    hdr = TcpHeader(src_port=1, dst_port=2, seq=0, ack=0, data_offset=6, options=MSS_1460)
    assert hdr.encode()[20:] == MSS_1460


def test_nop_and_eol_preserved():
    # bytes after EOL, and options whose length runs past the block, stay put
    for options in (b"\x01\x01\x00\x07", b"\x00\x02\x04\x05", b"\x02\x09\x05\xb4"):
        hdr = TcpHeader(src_port=1, dst_port=2, seq=0, ack=0, data_offset=6, options=options)
        assert TcpHeader.decode(hdr.encode()).options == options


def test_timestamp_option_round_trip():
    options = b"\x01\x01\x08\x0a" + struct.pack("!II", 123456, 0)
    hdr = TcpHeader(src_port=1, dst_port=2, seq=0, ack=0, data_offset=8, options=options)
    assert TcpHeader.decode(hdr.encode()) == hdr


# -- TCP header -------------------------------------------------------------


def test_flag_bit_values():
    bits = [TCP_FIN, TCP_SYN, TCP_RST, TCP_PSH, TCP_ACK, TCP_URG]
    assert bits == [0x01, 0x02, 0x04, 0x08, 0x10, 0x20]
    for bit in (*bits, 0x40, 0x80, 0x100, 0x800):  # ECE, CWR, NS, reserved
        raw = TcpHeader(src_port=1, dst_port=2, seq=0, ack=0, data_offset=5, flags=bit).encode()
        assert struct.unpack_from("!H", raw, 12)[0] == 0x5000 | bit
        assert TcpHeader.decode(raw).flags == bit


def test_data_offset_must_cover_options():
    with pytest.raises(ValueError):
        TcpHeader(src_port=1, dst_port=2, seq=0, ack=0, data_offset=5, options=MSS_1460)
    with pytest.raises(ValueError):
        TcpHeader(src_port=1, dst_port=2, seq=0, ack=0, data_offset=6)


def test_tcp_header_round_trip_with_mss():
    hdr = TcpHeader(
        src_port=40000,
        dst_port=80,
        seq=12345,
        ack=0,
        data_offset=6,
        flags=TCP_SYN,
        window=64240,
        options=MSS_1460,
    )
    back = TcpHeader.decode(hdr.encode())
    assert back == hdr
    assert back.options == MSS_1460


@st.composite
def wire_frames(draw):
    """IPv4 frames packed by hand, not by the encoders under test: every IP
    and TCP flag bit, arbitrary option bytes, fragments included."""
    ip_options = draw(option_blocks())
    ihl = 5 + len(ip_options) // 4
    ip_flags = draw(st.integers(0, 7))
    frag_offset = draw(st.one_of(st.just(0), st.integers(0, 8000)))
    if ip_flags & IP_MF or frag_offset:
        body = draw(st.binary(max_size=300))
    else:
        tcp_options = draw(option_blocks())
        body = struct.pack(
            "!HHIIHHHH",
            draw(st.integers(0, 0xFFFF)),
            draw(st.integers(0, 0xFFFF)),
            draw(st.integers(0, 2**32 - 1)),
            draw(st.integers(0, 2**32 - 1)),
            (5 + len(tcp_options) // 4) << 12 | draw(st.integers(0, 0xFFF)),
            draw(st.integers(0, 0xFFFF)),
            draw(st.integers(0, 0xFFFF)),
            draw(st.integers(0, 0xFFFF)),
        ) + tcp_options + draw(st.binary(max_size=200))
    return struct.pack(
        "!BBHHHBBHII",
        0x40 | ihl,
        draw(st.integers(0, 255)),
        ihl * 4 + len(body),
        draw(st.integers(0, 0xFFFF)),
        ip_flags << 13 | frag_offset,
        draw(st.integers(0, 255)),
        6,
        draw(st.integers(0, 0xFFFF)),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.integers(0, 2**32 - 1)),
    ) + ip_options + body


@given(wire_frames())
def test_decode_then_encode_gives_back_the_frame(frame):
    pkt = PacketRecord.decode(frame)
    assert pkt.encode() == frame
    assert (pkt.tcp is None) == pkt.is_fragment


# -- packet records ---------------------------------------------------------


def test_total_length_invariant_enforced():
    with pytest.raises(ValueError):
        PacketRecord(
            ts=0.0,
            ip=make_ip(10),  # claims 10 payload bytes
            tcp=TcpHeader(src_port=1, dst_port=2, seq=0, ack=0, data_offset=5),
            payload=b"abc",
        )


def test_packet_round_trip():
    pkt = make_packet(1000, b"hello world!")
    back = PacketRecord.decode(pkt.encode(), ts=pkt.ts)
    assert back == pkt


def test_fragment_decode_has_no_tcp():
    frag = make_fragment(5, 1, b"x" * 8, mf=True)
    back = PacketRecord.decode(frag.encode(), ts=0.0)
    assert back.tcp is None
    assert back.is_fragment
    assert back.payload == b"x" * 8


def test_offset_zero_mf_fragment_is_fragment():
    frag = make_fragment(5, 0, bytes(24), mf=True)
    assert frag.is_fragment
    back = PacketRecord.decode(frag.encode(), ts=0.0)
    assert back.tcp is None


def test_with_checksums_validates_both_layers():
    pkt = make_packet(1, b"data")
    assert pkt.ip.checksum_valid()
    assert pkt.tcp_checksum_valid()


def test_ip_payload_of_full_packet_contains_tcp_header():
    pkt = make_packet(7, b"abcd")
    raw = pkt.ip_payload()
    assert len(raw) == 20 + 4
    assert raw[-4:] == b"abcd"


def test_flow_key_of_fragment_rejected():
    frag = make_fragment(5, 1, b"x" * 8, mf=True)
    with pytest.raises(Exception):
        flow_key_of(frag)


@given(st.binary(min_size=0, max_size=200), st.integers(0, 2**32 - 1))
def test_payload_and_seq_round_trip(payload, seq):
    pkt = make_packet(seq, payload)
    back = PacketRecord.decode(pkt.encode(), ts=0.0)
    assert back.payload == payload
    assert back.tcp.seq == seq


# -- frozen copies -----------------------------------------------------------


def field_values(obj):
    return [getattr(obj, f.name) for f in dataclasses.fields(obj)]


def assert_same_copy(obj, changes):
    ours = evolve(obj, **changes)
    theirs = dataclasses.replace(obj, **changes)
    assert type(ours) is type(theirs)
    assert field_values(ours) == field_values(theirs)
    assert ours == theirs and hash(ours) == hash(theirs)
    assert ours.encode() == theirs.encode()


IP_CHANGES = st.fixed_dictionaries({}, optional={
    "tos": st.integers(0, 255),
    "identification": st.integers(0, 0xFFFF),
    "flags": st.integers(0, 7),
    "ttl": st.integers(0, 255),
    "checksum": st.integers(0, 0xFFFF),
    "src_addr": st.integers(0, 2**32 - 1),
    "dst_addr": st.integers(0, 2**32 - 1),
})

TCP_CHANGES = st.fixed_dictionaries({}, optional={
    "src_port": st.integers(0, 0xFFFF),
    "dst_port": st.integers(0, 0xFFFF),
    "seq": st.integers(0, 2**32 - 1),
    "ack": st.integers(0, 2**32 - 1),
    "flags": st.integers(0, 0xFFF),
    "window": st.integers(0, 0xFFFF),
    "checksum": st.integers(0, 0xFFFF),
    "urgent": st.integers(0, 0xFFFF),
})


@given(random_packets(), IP_CHANGES)
def test_evolve_matches_replace_on_ipv4_headers(pkt, changes):
    assert_same_copy(pkt.ip, changes)


@given(random_packets(), TCP_CHANGES)
def test_evolve_matches_replace_on_tcp_headers(pkt, changes):
    assert_same_copy(pkt.tcp, changes)


@given(random_packets(), IP_CHANGES, TCP_CHANGES,
       st.one_of(st.none(), st.binary(max_size=300)), st.floats(0, 2e9))
def test_evolve_matches_replace_on_packets(pkt, ip_changes, tcp_changes, payload, ts):
    changes = {"ts": ts, "tcp": evolve(pkt.tcp, **tcp_changes)}
    if payload is not None:
        changes["payload"] = payload
        ip_changes = {**ip_changes,
                      "total_length": pkt.ip.total_length - len(pkt.payload) + len(payload)}
    changes["ip"] = evolve(pkt.ip, **ip_changes)
    assert_same_copy(pkt, changes)


@given(random_packets(), IP_CHANGES, TCP_CHANGES,
       st.one_of(st.none(), st.binary(max_size=300)), st.floats(0, 2e9))
def test_with_checksums_applies_changes_in_one_copy(pkt, ip_changes, tcp_changes, payload, ts):
    changes = {"ts": ts}
    if payload is not None:
        changes["payload"] = payload
        ip_changes = {**ip_changes,
                      "total_length": pkt.ip.total_length - len(pkt.payload) + len(payload)}
    before = (pkt.encode(), hash(pkt))
    ours = pkt.with_checksums(ip_changes, tcp_changes, **changes)
    theirs = evolve(pkt, ip=evolve(pkt.ip, **ip_changes),
                    tcp=evolve(pkt.tcp, **tcp_changes), **changes).with_checksums()
    assert ours == theirs and ours.encode() == theirs.encode()
    assert ours.ip.checksum_valid() and ours.tcp_checksum_valid()
    assert pkt.ip.with_checksum(**ip_changes) == theirs.ip
    assert (pkt.encode(), hash(pkt)) == before
    # an unchanged TCP header whose checksum still holds is shared, not copied
    assert (ours.tcp is pkt.tcp) == (not tcp_changes and pkt.tcp == ours.tcp)


def test_evolve_leaves_the_original_unchanged():
    pkt = make_packet(1000, b"hello")
    before = pkt.encode()
    moved = evolve(pkt, ip=evolve(pkt.ip, ttl=3), ts=1.5)
    assert pkt.encode() == before and pkt.ts == 0.0 and pkt.ip.ttl == 64
    assert moved.ip.ttl == 3 and moved.ts == 1.5


def test_evolve_rejects_unknown_fields():
    pkt = make_packet(1000, b"hello")
    for obj in (pkt, pkt.ip, pkt.tcp):
        with pytest.raises(TypeError):
            evolve(obj, no_such_field=1)


def test_evolve_validates_the_copy():
    pkt = make_packet(1000, b"hello")
    with pytest.raises(ValueError):
        evolve(pkt.ip, ihl=6)  # no options to fill the extra 4 bytes
    with pytest.raises(ValueError):
        evolve(pkt.tcp, data_offset=6)
    with pytest.raises(ValueError):
        evolve(pkt, payload=b"hello!")  # total_length still counts 5 bytes
