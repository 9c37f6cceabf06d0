"""Internet checksum oracles.

The fixed expected values below were derived by hand with one's-complement
arithmetic; the hypothesis properties check algebraic facts that hold for
any implementation of RFC 1071, and compare the in-place validity checks
and ``with_checksums`` with the zeroed-copy formulas written out here.
"""

import struct
from dataclasses import replace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from evasionlab.errors import OddLengthError
from evasionlab.packets import (
    IP_DF,
    TCP_ACK,
    TCP_PSH,
    Ipv4Header,
    PacketRecord,
    TcpHeader,
    ipv4_checksum,
    tcp_checksum,
)
from helpers import make_ip, make_packet, random_packets, reference_checksum, wire_packet


def test_hand_worked_example():
    # 0x0001 + 0xf203 + 0xf4f5 + 0xf6f7 = 0x2ddf0 -> fold 0xddf2 -> ~ = 0x220d
    data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
    assert ipv4_checksum(data) == 0x220D


def test_all_zero_header():
    assert ipv4_checksum(bytes(20)) == 0xFFFF


def test_empty_input():
    assert ipv4_checksum(b"") == 0xFFFF


def test_odd_length_rejected():
    with pytest.raises(OddLengthError):
        ipv4_checksum(b"\x01")
    with pytest.raises(OddLengthError):
        ipv4_checksum(bytes(19))


def test_inserting_checksum_validates():
    # a header that carries its own correct checksum sums to zero again
    header = bytearray(
        bytes.fromhex("450000281234400040060000") + bytes(8)
    )
    header[12:16] = bytes([10, 0, 0, 1])
    header[16:20] = bytes([192, 168, 0, 9])
    c = ipv4_checksum(bytes(header))
    struct.pack_into("!H", header, 10, c)
    assert ipv4_checksum(bytes(header)) == 0


# all-0xFF sums to a nonzero multiple of 0xFFFF: negative zero, checksum 0
@given(st.binary(min_size=0, max_size=1500).filter(lambda b: len(b) % 2 == 0))
@example(bytes([0x00]) * 2)
@example(bytes([0x00]) * 4)
@example(bytes([0x00]) * 20)
@example(bytes([0x00]) * 1500)
@example(bytes([0xFF]) * 2)
@example(bytes([0xFF]) * 4)
@example(bytes([0xFF]) * 20)
@example(bytes([0xFF]) * 1500)
def test_matches_reference(data):
    assert ipv4_checksum(data) == reference_checksum(data)


@given(
    st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=24),
    st.randoms(use_true_random=False),
)
def test_word_order_irrelevant(words, rnd):
    # one's-complement addition commutes, so shuffling 16-bit words
    # cannot change the checksum
    packed = b"".join(struct.pack("!H", w) for w in words)
    shuffled = list(words)
    rnd.shuffle(shuffled)
    repacked = b"".join(struct.pack("!H", w) for w in shuffled)
    assert ipv4_checksum(packed) == ipv4_checksum(repacked)


def test_tcp_pseudo_header_zero_case():
    # zero addresses, zeroed 20-byte TCP header, no payload:
    # pseudo header contributes proto 6 and length 20 -> 0x001a -> ~ = 0xffe5
    assert tcp_checksum(0, 0, bytes(20), b"") == 0xFFE5


def test_tcp_odd_payload_padded():
    # the pad byte joins the sum but not the pseudo-header segment length
    tcp = bytes(20)
    pseudo = struct.pack("!IIBBH", 1, 2, 0, 6, 21)
    expected = ipv4_checksum(pseudo + tcp + b"\xab\x00")
    assert tcp_checksum(1, 2, tcp, b"\xab") == expected


def test_tcp_segment_too_long_rejected():
    with pytest.raises(ValueError):
        tcp_checksum(0, 0, bytes(20), bytes(65536 - 20 + 1))


@given(st.binary(min_size=0, max_size=64))
def test_tcp_checksum_in_range(payload):
    c = tcp_checksum(0x0A000001, 0xC0A80009, bytes(20), payload)
    assert 0 <= c <= 0xFFFF


# -- in-place validity against the zeroed-field recompute -------------------


def zeroed_ip_checksum(ip: Ipv4Header) -> int:
    return reference_checksum(replace(ip, checksum=0).encode())


def tcp_summed_bytes(pkt: PacketRecord, tcp: TcpHeader) -> bytes:
    """Pseudo-header, TCP header and payload, zero-padded to whole words."""
    segment = tcp.encode() + pkt.payload
    pseudo = struct.pack("!IIBBH", pkt.ip.src_addr, pkt.ip.dst_addr, 0, 6, len(segment))
    return pseudo + segment + b"\x00" * (len(segment) % 2)


def zeroed_tcp_checksum(pkt: PacketRecord) -> int:
    return reference_checksum(tcp_summed_bytes(pkt, replace(pkt.tcp, checksum=0)))


STORED = ("zero", "ones", "computed", "computed+1", "computed-1")


def stored_value(kind: str, computed: int) -> int:
    return {
        "zero": 0x0000,
        "ones": 0xFFFF,
        "computed": computed,
        "computed+1": (computed + 1) & 0xFFFF,
        "computed-1": (computed - 1) & 0xFFFF,
    }[kind]


@given(random_packets(), st.sampled_from(STORED))
def test_ip_checksum_valid_matches_zeroed_recompute(pkt, kind):
    computed = zeroed_ip_checksum(pkt.ip)
    ip = replace(pkt.ip, checksum=stored_value(kind, computed))
    assert ip.checksum_valid() == (zeroed_ip_checksum(ip) == ip.checksum)


@given(random_packets(), st.sampled_from(STORED))
def test_tcp_checksum_valid_matches_zeroed_recompute(pkt, kind):
    computed = zeroed_tcp_checksum(pkt)
    pkt = replace(pkt, tcp=replace(pkt.tcp, checksum=stored_value(kind, computed)))
    assert pkt.tcp_checksum_valid() == (zeroed_tcp_checksum(pkt) == pkt.tcp.checksum)


@given(random_packets(), st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
def test_with_checksums_matches_zeroed_recompute(pkt, ip_stored, tcp_stored):
    pkt = replace(pkt, ip=replace(pkt.ip, checksum=ip_stored),
                  tcp=replace(pkt.tcp, checksum=tcp_stored))
    expected = replace(
        pkt,
        ip=replace(pkt.ip, checksum=zeroed_ip_checksum(pkt.ip)),
        tcp=replace(pkt.tcp, checksum=zeroed_tcp_checksum(pkt)),
    )
    assert pkt.with_checksums().encode() == expected.encode()


def test_stored_all_ones_is_never_valid():
    # payload chosen so the valid TCP checksum is 0x0000: 0xFFFF, the other
    # one's-complement zero, sums to 0xFFFF in place but is not the checksum
    pkt = make_packet(7, b"\x00\x00")
    pkt = make_packet(7, pkt.tcp.checksum.to_bytes(2, "big"))
    assert pkt.tcp.checksum == 0x0000 and pkt.tcp_checksum_valid()
    ones = replace(pkt, tcp=replace(pkt.tcp, checksum=0xFFFF))
    assert not ones.tcp_checksum_valid()


def test_segment_sum_reducing_to_the_stored_field_reads_as_zeroed_sum():
    # header (data offset word 0x5000, stored field 0x1234), payload 0xAFE3
    # and pseudo-header (zero addresses, protocol 6, length 22) reduce to
    # exactly the stored field, so taking it off leaves a multiple of 0xFFFF
    tcp = TcpHeader(0, 0, 0, 0, data_offset=5, window=0, checksum=0x1234)
    pkt = PacketRecord(0.0, make_ip(2, src=0, dst=0), tcp, b"\xaf\xe3")
    assert zeroed_tcp_checksum(pkt) == 0x0000
    assert not pkt.tcp_checksum_valid()
    assert pkt.with_checksums().tcp.checksum == 0x0000


def test_odd_length_tcp_header_rejected():
    with pytest.raises(OddLengthError):
        tcp_checksum(0, 0, bytes(21), b"")


def test_ecn_bits_keep_a_wire_valid_tcp_checksum_valid():
    # RFC 3168: ECE (0x40) and CWR (0x80) sit above the six classic flags
    raw = wire_packet(b"data", tcp_flags=TCP_ACK | TCP_PSH | 0x40 | 0x80)
    pkt = PacketRecord.decode(raw)
    assert pkt.encode() == raw
    assert pkt.tcp_checksum_valid()


def test_ip_reserved_bit_keeps_a_wire_valid_header_checksum_valid():
    raw = wire_packet(b"data", ip_flags=0x4 | IP_DF)
    pkt = PacketRecord.decode(raw)
    assert pkt.encode() == raw
    assert pkt.ip.checksum_valid() and pkt.tcp_checksum_valid()
