"""Capture file reading, writing, and flow grouping."""

import hashlib
import io
import random
import struct
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evasionlab.errors import BadMagicError, EvasionLabError, TruncatedFileError
from evasionlab.features import ABSENT, feature_matrix
from evasionlab.packets import Ipv4Header
from evasionlab.pcapio import (
    CaptureStats,
    group_flows,
    read_pcap,
    write_pcap,
)
from evasionlab.receiver import normalize_receive
from evasionlab.synth import (
    EvasionLabel,
    SynthParams,
    apply_evasion,
    build_labeled_corpus,
    generate_clean_flow,
)
from helpers import (
    DPORT,
    DST,
    SPORT,
    SRC,
    assert_table_path_matches_reference,
    make_fragment,
    make_ip,
    make_packet,
    wire_packet,
)


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
    assert list(cap.records) == packets
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


class _ShortReads(io.RawIOBase):
    """A stream whose every read returns at most 7 bytes, as a pipe or
    socket may."""

    def __init__(self, data):
        self._data = data
        self._pos = 0

    def readable(self):
        return True

    def readinto(self, buf):
        n = min(len(buf), 7, len(self._data) - self._pos)
        buf[:n] = self._data[self._pos : self._pos + n]
        self._pos += n
        return n


def test_short_reads_are_not_truncation():
    trace = generate_clean_flow(4, 8)
    buf = io.BytesIO()
    write_pcap(buf, trace.packets)
    cap = read_pcap(_ShortReads(buf.getvalue()))
    whole = read_pcap(io.BytesIO(buf.getvalue()))
    assert cap.stats == whole.stats and list(cap.records) == list(whole.records)
    assert cap.stats.packets_tcp == 8


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


def test_segment_after_fragments_has_no_overlap_predecessor():
    syn = make_packet(1, b"", syn=True, ts=0.0, ident=1)
    raw = make_packet(2, b"A" * 12, ts=0.1, ident=2).ip_payload()
    f0 = make_fragment(2, 0, raw[:24], mf=True, ts=0.1)
    f1 = make_fragment(2, 3, raw[24:], mf=False, ts=0.1001)
    data = capture_bytes([syn, f0, f1, make_packet(14, b"B" * 5, ts=0.2, ident=3)])
    assert_table_path_matches_reference(data)
    rows = feature_matrix(group_flows(read_pcap(io.BytesIO(data)).records)[0])
    assert rows[3, 9] == ABSENT and rows[3, 8] == 14 - 2  # expected after the SYN


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


def capture_bytes(packets, extra_frames=()):
    """A written capture, then hand-built frames appended as records."""
    buf = io.BytesIO()
    write_pcap(buf, packets)
    for frame in extra_frames:
        buf.write(struct.pack("<IIII", 1, 0, len(frame), len(frame)))
        buf.write(frame)
    return buf.getvalue()


def ipv4_frame(ip_bytes):
    return bytes(12) + struct.pack("!H", 0x0800) + ip_bytes


def test_each_frame_decodes_its_ip_header_once(monkeypatch):
    # reading, grouping and featurizing build no header objects; each
    # record built from the capture decodes its IP header once
    trace = apply_evasion(generate_clean_flow(5, 8), EvasionLabel.IP_FRAG, SynthParams())
    raw = capture_bytes(trace.packets)
    decode = Ipv4Header.decode
    calls = []

    def counting_decode(cls, data, *bounds):
        calls.append(bounds)
        return decode(data, *bounds)

    monkeypatch.setattr(Ipv4Header, "decode", classmethod(counting_decode))
    cap = read_pcap(io.BytesIO(raw))
    for flow in group_flows(cap.records):
        feature_matrix(flow)
    assert cap.stats.packets_tcp == len(trace.packets)
    assert calls == []
    assert [p.encode() for p in cap.records] == [p.encode() for p in trace.packets]
    assert len(calls) == len(trace.packets)


@pytest.mark.parametrize("options, mss, wscale, tsval", [
    pytest.param(b"\x01\x03\x03\x07\x02\x09\x05\xb4", ABSENT, 7, 0, id="length-past-end"),
    pytest.param(b"\x02\x04\x05\xb4\x08\x01\x00\x00", 1460, ABSENT, 1, id="length-below-2"),
    pytest.param(b"\x01\x01\x01\x08", ABSENT, ABSENT, 1, id="length-missing"),
    pytest.param(b"\x03\x03\x02\x00\x02\x04\x01\x00", ABSENT, 2, 0, id="after-eol"),
    pytest.param(b"\x02\x04\x05\xb4\x02\x04\x01\x00", 1460, ABSENT, 0, id="first-kept"),
])
def test_tcp_option_contents_never_skip_a_frame(options, mss, wscale, tsval):
    frame = wire_packet(b"data", seq=1000, tcp_options=options)
    cap = read_pcap(io.BytesIO(capture_bytes([make_packet(10, b"keep")], [ipv4_frame(frame)])))
    assert cap.stats == CaptureStats(packets_total=2, packets_tcp=2)
    assert cap.records[1].encode() == frame
    row = feature_matrix(group_flows(cap.records)[0])[1]
    assert row[4] == 1  # the checksum covers the option bytes as sent
    assert row[10:13].tolist() == [mss, wscale, tsval]


def _udp_frame():
    ip = replace(make_ip(12, tcp_len=0), protocol=17).with_checksum()
    return ipv4_frame(ip.encode() + bytes(12))


def _bad_ihl_frame():
    raw = bytearray(make_packet(3, b"ihl").encode())
    raw[0] = 0x44  # version 4, header length 16 bytes
    return ipv4_frame(bytes(raw))


def _long_total_length_frame():
    raw = bytearray(make_packet(3, b"short").encode())
    struct.pack_into("!H", raw, 2, len(raw) + 10)
    return ipv4_frame(bytes(raw))


def _patched_frame(pkt, patches):
    """``pkt`` encoded, with the bytes at each offset of ``patches`` replaced."""
    raw = bytearray(pkt.encode())
    for offset, data in patches.items():
        raw[offset : offset + len(data)] = data
    return ipv4_frame(bytes(raw))


def _short_segment_frame():
    return ipv4_frame(make_ip(12, tcp_len=0).with_checksum().encode() + bytes(12))


@pytest.mark.parametrize("frame, link, protocol", [
    pytest.param(bytes(12) + struct.pack("!H", 0x86DD) + bytes(40), 1, 0, id="ipv6"),
    pytest.param(bytes(10), 1, 0, id="short-ethernet"),
    pytest.param(_udp_frame(), 0, 1, id="udp"),
    pytest.param(_bad_ihl_frame(), 0, 1, id="bad-ihl"),
    pytest.param(_long_total_length_frame(), 0, 1, id="total-length-past-end"),
    # read 16 bytes in, the TCP header would look whole: its data offset
    # nibble lands on the real header's acknowledgment number, set to 5
    pytest.param(_patched_frame(make_packet(3, b"ihl"), {0: b"\x44", 28: b"\x50"}), 0, 1,
                 id="ihl-4"),
    pytest.param(_patched_frame(make_packet(3, b"v6"), {0: b"\x65"}), 0, 1, id="version-6"),
    pytest.param(_patched_frame(make_packet(3, b"tl"), {2: struct.pack("!H", 19)}), 0, 1,
                 id="total-length-below-header"),
    pytest.param(_patched_frame(make_fragment(9, 3, b"f" * 16, mf=True),
                                {6: struct.pack("!H", 0x3FFF)}), 0, 1, id="fragment-past-64k"),
    pytest.param(_short_segment_frame(), 0, 1, id="segment-below-20"),
    pytest.param(_patched_frame(make_packet(3, b"do"), {32: b"\x40"}), 0, 1,
                 id="data-offset-4"),
    pytest.param(_patched_frame(make_packet(3, b"do"), {32: b"\x70"}), 0, 1,
                 id="data-offset-past-segment"),
])
def test_skipped_frames_are_counted_by_reason(frame, link, protocol):
    raw = capture_bytes([make_packet(10, b"keep")], [frame])
    cap = read_pcap(io.BytesIO(raw))
    assert len(cap.records) == 1
    assert cap.stats == CaptureStats(
        packets_total=2, packets_tcp=1, packets_skipped=1,
        skipped_link=link, skipped_protocol=protocol,
    )
    assert_table_path_matches_reference(raw)


_MUTATION_BASE = capture_bytes(
    apply_evasion(generate_clean_flow(11, 5), EvasionLabel.IP_FRAG, SynthParams()).packets
    + apply_evasion(generate_clean_flow(12, 5), EvasionLabel.TCP_OPT, SynthParams()).packets
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(_MUTATION_BASE) - 1), st.integers(1, 255)),
                min_size=1, max_size=3))
def test_mutated_capture_raises_only_typed_errors(flips):
    raw = bytearray(_MUTATION_BASE)
    for index, mask in flips:
        raw[index] ^= mask
    try:
        cap = read_pcap(io.BytesIO(bytes(raw)))
        for flow in group_flows(cap.records):
            feature_matrix(flow)
    except EvasionLabError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(_MUTATION_BASE) - 1), st.integers(1, 255)),
                min_size=1, max_size=3))
def test_receiver_on_mutated_capture_raises_only_typed_errors(flips):
    raw = bytearray(_MUTATION_BASE)
    for index, mask in flips:
        raw[index] ^= mask
    try:
        cap = read_pcap(io.BytesIO(bytes(raw)))
    except EvasionLabError:
        return
    for flow in group_flows(cap.records):
        try:
            normalize_receive(flow)
        except EvasionLabError:
            pass


# Recorded before headers kept their wire bits; decoding synthesized traffic
# must read the same stats and features whatever the header model.
GOLDEN_DECODE = {
    "plain": "93567cd87a9d681353724400fddf1dc6c1990b7007198ce79b47d1c170966661",
    "overlap": "ebffdfd5c92f9bc8cae3a4bc9059e36f55bc1918c0d90df0ebe2a3f8048a29c8",
    "detect": "c182b7c5bfb216278f1c5f17bf2135e2522085a09f86ae463fa0022cda20c8d1",
}
_DECODE_CORPORA = {
    "plain": (SynthParams(), {}),
    "overlap": (SynthParams(overlap=True), {}),
    "detect": (SynthParams(frag_units=8, seg_bytes=64),
               {"n_packets_range": (12, 24), "payload_len_range": (128, 512)}),
}


@pytest.mark.parametrize("name", list(_DECODE_CORPORA))
def test_decode_path_matches_golden(name):
    params, kwargs = _DECODE_CORPORA[name]
    corpus = build_labeled_corpus(2, params, seed=2024, **kwargs)
    cap = roundtrip([p for trace, _ in corpus for p in trace.packets])
    digest = hashlib.sha256(repr(astuple(cap.stats)).encode())
    for flow in group_flows(cap.records):
        digest.update(repr((flow.key, len(flow))).encode())
        digest.update(np.ascontiguousarray(feature_matrix(flow), dtype="<f4").tobytes())
    assert digest.hexdigest() == GOLDEN_DECODE[name]


def _mutated_captures(count=600, seed=12):
    """A fixed list of byte-flipped, cut, and flipped-then-cut copies of
    _MUTATION_BASE, cuts landing anywhere from the global header to the
    last byte."""
    rng = random.Random(seed)
    cases = []
    for k in range(count):
        raw = bytearray(_MUTATION_BASE)
        if k % 3 != 1:
            for _ in range(rng.randint(1, 3)):
                raw[rng.randrange(len(raw))] ^= rng.randint(1, 255)
        if k % 3 != 0:
            del raw[rng.randrange(len(raw)) :]
        cases.append(bytes(raw))
    return cases


# Recorded before the capture was read whole: each mutated capture must
# read the same stats and records, or raise the same error with the same
# message.
GOLDEN_MUTATED = "a5a15ea79df0c8c854d9488fce1f35572e420fc21106db57a853a6275603eb4a"


def test_mutated_captures_read_as_golden():
    digest = hashlib.sha256()
    for raw in _mutated_captures():
        try:
            cap = read_pcap(io.BytesIO(raw))
        except EvasionLabError as exc:
            digest.update(repr((type(exc).__name__, str(exc))).encode())
        else:
            digest.update(repr((astuple(cap.stats), list(cap.records))).encode())
    assert digest.hexdigest() == GOLDEN_MUTATED


# -- the packet table against the per-frame and per-object reference loops --


def test_table_path_matches_the_reference_on_mutated_captures():
    for raw in _mutated_captures():
        assert_table_path_matches_reference(raw)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(_MUTATION_BASE) - 1), st.integers(1, 255)),
                min_size=1, max_size=3))
def test_table_path_matches_the_reference_on_flipped_bytes(flips):
    raw = bytearray(_MUTATION_BASE)
    for index, mask in flips:
        raw[index] ^= mask
    assert_table_path_matches_reference(bytes(raw))


@pytest.mark.parametrize("name, flows_per_class", [
    ("plain", 4), ("overlap", 4), ("detect", 2), pytest.param("detect", 30, id="detect-sized"),
])
def test_table_path_matches_the_reference_on_synthesized_captures(name, flows_per_class):
    params, kwargs = _DECODE_CORPORA[name]
    corpus = build_labeled_corpus(flows_per_class, params, seed=(1 << 24) | 1, **kwargs)
    assert_table_path_matches_reference(
        capture_bytes([p for trace, _ in corpus for p in trace.packets])
    )


def test_regrouped_feature_rows_belong_to_the_caller():
    corpus = build_labeled_corpus(1, SynthParams(), seed=31)
    cap = roundtrip([p for trace, _ in corpus for p in trace.packets])
    flows = group_flows(cap.records)
    want = [feature_matrix(flow).copy() for flow in flows]
    for flow in flows[:2]:
        feature_matrix(flow)[:] = 99.0
    again = group_flows(cap.records)
    for flow, other, rows in zip(flows, again, want):
        assert feature_matrix(flow).tobytes() == rows.tobytes()
        assert feature_matrix(other).tobytes() == rows.tobytes()
