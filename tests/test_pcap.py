"""Capture file reading, writing, and flow grouping."""

import io
import struct

import pytest

from evasionlab.errors import BadMagicError, TruncatedFileError
from evasionlab.pcapio import (
    group_flows,
    read_pcap,
    write_pcap,
)
from evasionlab.synth import EvasionLabel, SynthParams, apply_evasion, generate_clean_flow
from helpers import DPORT, DST, SPORT, SRC, make_fragment, make_packet


def roundtrip(packets):
    buf = io.BytesIO()
    write_pcap(buf, packets)
    buf.seek(0)
    return read_pcap(buf)


def test_round_trip_preserves_packets():
    packets = [
        make_packet(100, b"", syn=True, ts=1.0),
        make_packet(101, b"abcdefgh", ts=1.25),
    ]
    cap = roundtrip(packets)
    assert cap.records == packets
    assert cap.stats.packets_total == 2
    assert cap.stats.packets_tcp == 2
    assert cap.stats.packets_skipped == 0


def test_timestamp_microsecond_resolution():
    pkt = make_packet(5, b"x", ts=1700000000.123456)
    cap = roundtrip([pkt])
    assert cap.records[0].ts == pytest.approx(1700000000.123456, abs=1e-7)


def test_timestamp_rounding_carries_into_seconds():
    # 1.9999996 s rounds to 2.000000, not 1.1000000
    pkt = make_packet(5, b"x", ts=1.9999996)
    cap = roundtrip([pkt])
    assert cap.records[0].ts == pytest.approx(2.0, abs=1e-9)


def test_big_endian_capture_readable():
    inner = make_packet(42, b"payload!")
    frame = (
        bytes(6) + bytes(6) + struct.pack("!H", 0x0800) + inner.encode()
    )
    buf = io.BytesIO()
    buf.write(struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1))
    buf.write(struct.pack(">IIII", 3, 500000, len(frame), len(frame)))
    buf.write(frame)
    buf.seek(0)
    cap = read_pcap(buf)
    assert len(cap.records) == 1
    assert cap.records[0].tcp.seq == 42
    assert cap.records[0].ts == pytest.approx(3.5)


def test_bad_magic_rejected():
    buf = io.BytesIO(b"\xde\xad\xbe\xef" + bytes(20))
    with pytest.raises(BadMagicError):
        read_pcap(buf)


def test_non_ethernet_linktype_rejected():
    buf = io.BytesIO(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101))
    with pytest.raises(BadMagicError):
        read_pcap(buf)


def test_truncated_header():
    with pytest.raises(TruncatedFileError):
        read_pcap(io.BytesIO(b"\xd4\xc3\xb2\xa1\x02\x00"))


def test_truncated_record_body():
    buf = io.BytesIO()
    write_pcap(buf, [make_packet(9, b"hello")])
    raw = buf.getvalue()
    with pytest.raises(TruncatedFileError):
        read_pcap(io.BytesIO(raw[:-3]))


def test_non_ip_frames_skipped_not_fatal():
    buf = io.BytesIO()
    write_pcap(buf, [make_packet(10, b"keep")])
    # append a valid record header whose frame carries an ARP ethertype
    arp = bytes(12) + struct.pack("!H", 0x0806) + bytes(28)
    buf.write(struct.pack("<IIII", 1, 0, len(arp), len(arp)))
    buf.write(arp)
    buf.seek(0)
    cap = read_pcap(buf)
    assert len(cap.records) == 1
    assert cap.stats.packets_skipped == 1


def test_group_flows_separates_four_tuples():
    a1 = make_packet(1, b"", syn=True, ts=0.0)
    b1 = make_packet(9, b"", syn=True, ts=0.1, sport=50000)
    a2 = make_packet(2, b"aa", ts=0.2)
    b2 = make_packet(10, b"bb", ts=0.3, sport=50000)
    flows = group_flows([a1, b1, a2, b2])
    assert len(flows) == 2
    sizes = sorted(len(f.packets) for f in flows)
    assert sizes == [2, 2]
    for flow in flows:
        ports = {p.tcp.src_port for p in flow.packets}
        assert len(ports) == 1


def test_group_flows_attaches_fragments():
    syn = make_packet(1, b"", syn=True, ts=0.0, ident=1)
    # a split data packet: offset 0 carries the TCP header bytes
    whole = make_packet(2, b"A" * 12, ts=0.1, ident=2)
    raw = whole.ip_payload()
    f0 = make_fragment(2, 0, raw[:24], mf=True, ts=0.1)
    f1 = make_fragment(2, 3, raw[24:], mf=False, ts=0.1001)
    flows = group_flows([syn, f0, f1])
    assert len(flows) == 1
    assert len(flows[0].packets) == 3
    assert flows[0].key == (SRC, SPORT, DST, DPORT)


def test_overlapping_first_fragment_keeps_its_flow():
    # with overlap on and 8-byte fragments, the second fragment of every
    # data packet also sits at offset 0, led by 8 junk bytes
    trace = apply_evasion(
        generate_clean_flow(1, 6), EvasionLabel.IP_FRAG, SynthParams(overlap=True, seed=3)
    )
    cap = roundtrip(trace.packets)
    flows = group_flows(cap.records)
    assert len(flows) == 1
    assert [p.encode() for p in flows[0].packets] == [p.encode() for p in trace.packets]


def test_orphan_fragment_dropped():
    syn = make_packet(1, b"", syn=True, ts=0.0)
    orphan = make_fragment(77, 3, b"y" * 8, mf=False, ts=0.5)
    flows = group_flows([syn, orphan])
    assert len(flows) == 1
    assert len(flows[0].packets) == 1


def test_write_then_read_fragments():
    frag = make_fragment(3, 2, b"z" * 16, mf=True, ts=0.25)
    cap = roundtrip([frag])
    assert cap.records[0].tcp is None
    assert cap.records[0].ip.frag_offset == 2
    assert cap.records[0].payload == b"z" * 16
