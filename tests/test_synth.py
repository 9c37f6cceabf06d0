"""Traffic synthesis: clean flows, the eight transforms, corpus builds.

The central invariant is that every transform fools only a naive
observer: a strict endpoint reassembles exactly the clean payload.
"""

import collections
import hashlib
import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evasionlab.errors import EmptyPayloadError
from evasionlab.features import feature_matrix
from evasionlab.packets import (
    IP_DF,
    IP_MF,
    TCP_ACK,
    TCP_PSH,
    TCP_SYN,
    FlowTrace,
    Ipv4Header,
    PacketRecord,
    TcpHeader,
)
from evasionlab.pcapio import write_pcap
from evasionlab.receiver import normalize_receive
from evasionlab.synth import (
    CLEAN_LABEL,
    EvasionLabel,
    SynthParams,
    apply_evasion,
    build_labeled_corpus,
    generate_clean_flow,
)
from helpers import option_blocks, reference_apply_evasion, reference_feature_matrix

ALL_LABELS = list(EvasionLabel)


def clean(seed=42, n=5):
    return generate_clean_flow(seed, n)


# -- labels -----------------------------------------------------------------


def test_label_codes_are_stable():
    assert [int(m) for m in EvasionLabel] == [0, 1, 2, 3, 4, 5, 6, 7]
    assert EvasionLabel.IP_OPT == 0
    assert EvasionLabel.IP_FRAG == 1
    assert EvasionLabel.TCP_CHAFF == 2
    assert EvasionLabel.IP_TOS == 3
    assert EvasionLabel.TCP_SEG == 4
    assert EvasionLabel.IP_TTL == 5
    assert EvasionLabel.IP_CHAFF == 6
    assert EvasionLabel.TCP_OPT == 7
    assert CLEAN_LABEL == 8


def test_label_tags_round_trip():
    for label in ALL_LABELS:
        assert EvasionLabel.from_tag(label.tag) is label
    with pytest.raises(ValueError):
        EvasionLabel.from_tag("nonsense")


# -- clean flows ------------------------------------------------------------


def test_clean_flow_shape():
    trace = clean(n=6)
    assert len(trace.packets) == 6
    assert trace.packets[0].tcp.flags == TCP_SYN
    assert not trace.packets[0].payload
    for pkt in trace.packets[1:]:
        assert pkt.tcp.flags == TCP_PSH | TCP_ACK
        assert 16 <= len(pkt.payload) <= 64
        assert pkt.ip.ttl == 64
        assert pkt.ip.tos == 0
        assert pkt.ip.flags == IP_DF
        assert pkt.ip.checksum_valid()
        assert pkt.tcp_checksum_valid()


def test_clean_flow_sequence_numbers_contiguous():
    trace = clean()
    seq = trace.packets[0].tcp.seq + 1
    for pkt in trace.packets[1:]:
        assert pkt.tcp.seq == seq
        seq += len(pkt.payload)


def test_clean_flow_deterministic():
    a = clean(seed=7)
    b = clean(seed=7)
    assert [p.encode() for p in a.packets] == [p.encode() for p in b.packets]
    c = clean(seed=8)
    assert [p.encode() for p in a.packets] != [p.encode() for p in c.packets]


def test_clean_flow_timestamps_increase():
    trace = clean()
    ts = [p.ts for p in trace.packets]
    assert ts == sorted(ts)
    assert ts[1] - ts[0] == pytest.approx(0.01)


# -- individual transforms --------------------------------------------------


def params(**kw):
    return SynthParams(**kw)


def test_ip_chaff_doubles_packet_count():
    trace = clean()
    out = apply_evasion(trace, EvasionLabel.IP_CHAFF, params(chaff_rate=1.0))
    assert len(out.packets) == 10
    bad = [p for p in out.packets if not p.ip.checksum_valid()]
    assert len(bad) == 5
    # chaff directly follows the packet it shadows, carrying junk bytes
    for i in range(0, 10, 2):
        real, chaff = out.packets[i], out.packets[i + 1]
        assert real.ip.checksum_valid()
        assert not chaff.ip.checksum_valid()
        assert chaff.payload
        assert chaff.payload != real.payload
        assert chaff.ts > real.ts


def test_ip_ttl_chaff_dies_at_floor():
    trace = clean(n=3)
    out = apply_evasion(trace, EvasionLabel.IP_TTL, params(ttl_floor=1))
    assert len(out.packets) == 6
    for i in range(0, 6, 2):
        real, chaff = out.packets[i], out.packets[i + 1]
        assert real.ip.ttl == 64
        assert chaff.ip.ttl == 1
        assert chaff.ip.checksum_valid()  # dies by TTL, not checksum
        if real.tcp is not None and chaff.tcp is not None:
            assert len(chaff.payload) == len(real.payload)
            assert chaff.payload != real.payload or not real.payload


def test_tcp_chaff_has_bad_tcp_checksum_only():
    trace = clean()
    out = apply_evasion(trace, EvasionLabel.TCP_CHAFF, params())
    chaff = out.packets[1::2]
    for real, dup in zip(out.packets[0::2], chaff):
        assert dup.ip.checksum_valid()
        assert not dup.tcp_checksum_valid()
        assert dup.tcp.seq == real.tcp.seq
        # junk matches the real payload length; the empty SYN gets 8 bytes
        assert len(dup.payload) == (len(real.payload) or 8)


def test_ip_frag_offsets_for_24_byte_section():
    # 4-byte payload + 20-byte TCP header = 24 bytes of IP payload,
    # cut into three 8-byte fragments at offsets 0, 1, 2
    trace = generate_clean_flow(0, 2, payload_len_range=(4, 4))
    out = apply_evasion(trace, EvasionLabel.IP_FRAG, params(frag_units=1))
    frags = out.packets[1:]
    assert [f.ip.frag_offset for f in frags] == [0, 1, 2]
    assert [f.ip.flags for f in frags] == [IP_MF, IP_MF, 0]  # DF cleared
    assert all(len(f.payload) == 8 for f in frags)
    assert all(f.tcp is None for f in frags)


def test_ip_frag_units_scale_fragment_size():
    trace = generate_clean_flow(0, 2, payload_len_range=(28, 28))  # 48-byte section
    out = apply_evasion(trace, EvasionLabel.IP_FRAG, params(frag_units=2))
    frags = out.packets[1:]
    assert [f.ip.frag_offset for f in frags] == [0, 2, 4]
    assert [len(f.payload) for f in frags] == [16, 16, 16]


def test_ip_frag_overlap_backs_up_one_unit():
    trace = generate_clean_flow(0, 2, payload_len_range=(4, 4))
    out = apply_evasion(trace, EvasionLabel.IP_FRAG, params(frag_units=1, overlap=True))
    frags = out.packets[1:]
    assert [f.ip.frag_offset for f in frags] == [0, 0, 1]
    # later fragments carry 8 junk bytes ahead of their real content
    assert [len(f.payload) for f in frags] == [8, 16, 16]


def test_ip_frag_leaves_single_chunk_packets_alone():
    # frag_units 4 = 32-byte fragments; a 24-byte section stays whole
    trace = generate_clean_flow(0, 2, payload_len_range=(4, 4))
    out = apply_evasion(trace, EvasionLabel.IP_FRAG, params(frag_units=4))
    assert len(out.packets) == 2
    assert out.packets[1].tcp is not None


def test_ip_opt_installs_record_route():
    trace = clean()
    out = apply_evasion(trace, EvasionLabel.IP_OPT, params())
    for pkt in out.packets:
        assert pkt.ip.ihl == 7
        assert pkt.ip.options[0] == 1  # NOP
        assert pkt.ip.options[1] == 7  # record route
        assert pkt.ip.checksum_valid()
        assert pkt.tcp_checksum_valid()


def test_ip_tos_cycles_configured_values():
    trace = clean(n=6)
    out = apply_evasion(trace, EvasionLabel.IP_TOS, params())
    assert [p.ip.tos for p in out.packets] == [16, 24, 17, 8, 16, 24]
    assert all(p.ip.checksum_valid() for p in out.packets)


def test_tcp_opt_syn_gets_mss():
    trace = clean()
    out = apply_evasion(trace, EvasionLabel.TCP_OPT, params())
    syn = out.packets[0]
    assert syn.tcp.data_offset == 6
    assert syn.tcp.options == b"\x02\x04\x05\xb4"  # MSS 1460
    tsvals = []
    for pkt in out.packets[1:]:
        assert pkt.tcp.data_offset == 8
        # NOP, NOP, timestamp (kind 8, length 10), TSval, TSecr 0
        assert pkt.tcp.options[:4] == b"\x01\x01\x08\x0a"
        assert pkt.tcp.options[8:] == bytes(4)
        tsvals.append(int.from_bytes(pkt.tcp.options[4:8], "big"))
        assert pkt.tcp_checksum_valid()
    assert tsvals == sorted(tsvals)
    assert len(set(tsvals)) == len(tsvals)


def test_tcp_opt_replaces_the_options_a_segment_carries():
    trace = clean()
    out = trace
    for seed in range(3):
        out = apply_evasion(out, EvasionLabel.TCP_OPT, params(seed=seed))
    assert [p.tcp.data_offset for p in out.packets] == [6] + [8] * (len(trace.packets) - 1)
    assert normalize_receive(out).delivered == normalize_receive(trace).delivered


def test_ip_opt_needs_8_free_option_bytes():
    out = clean()
    for _ in range(5):
        out = apply_evasion(out, EvasionLabel.IP_OPT, params())
    assert {p.ip.ihl for p in out.packets} == {15}
    with pytest.raises(ValueError, match="ip_opt needs 8 free IP option bytes"):
        apply_evasion(out, EvasionLabel.IP_OPT, params())


def test_tcp_seg_splits_at_seg_bytes():
    trace = generate_clean_flow(0, 2, payload_len_range=(24, 24))
    out = apply_evasion(trace, EvasionLabel.TCP_SEG, params(seg_bytes=8))
    segs = out.packets[1:]
    base = trace.packets[1].tcp.seq
    assert [s.tcp.seq - base for s in segs] == [0, 8, 16]
    assert [len(s.payload) for s in segs] == [8, 8, 8]
    assert b"".join(s.payload for s in segs) == trace.packets[1].payload


def test_tcp_seg_overlap_inserts_junk_resends():
    trace = generate_clean_flow(0, 2, payload_len_range=(24, 24))
    out = apply_evasion(
        trace, EvasionLabel.TCP_SEG, params(seg_bytes=8, overlap=True)
    )
    segs = out.packets[1:]
    base = trace.packets[1].tcp.seq
    # junk re-claims the previous 8 bytes before each later real segment
    assert [s.tcp.seq - base for s in segs] == [0, 0, 8, 8, 16]
    real = b"".join(segs[i].payload for i in (0, 2, 4))
    assert real == trace.packets[1].payload


def test_transforms_preserve_received_payload():
    # the whole point: a strict receiver sees identical bytes
    trace = clean(seed=42)
    want = normalize_receive(trace).delivered
    assert want
    for label in ALL_LABELS:
        for overlap in (False, True):
            out = apply_evasion(trace, label, params(seed=7, overlap=overlap))
            got = normalize_receive(out).delivered
            assert got == want, f"{label.tag} overlap={overlap}"


def test_transform_drop_accounting():
    trace = clean()
    chaffed = apply_evasion(trace, EvasionLabel.IP_CHAFF, params())
    assert normalize_receive(chaffed).dropped_ip_checksum == 5
    ttl = apply_evasion(trace, EvasionLabel.IP_TTL, params())
    assert normalize_receive(ttl).dropped_ttl == 5
    tcp = apply_evasion(trace, EvasionLabel.TCP_CHAFF, params())
    assert normalize_receive(tcp).dropped_tcp_checksum == 5
    frag = apply_evasion(trace, EvasionLabel.IP_FRAG, params())
    assert normalize_receive(frag).fragments_reassembled == 4


def with_wrong_checksums(trace):
    """The trace with every IP and TCP checksum off by one bit."""
    return FlowTrace(key=trace.key, packets=[
        replace(p, ip=replace(p.ip, checksum=p.ip.checksum ^ 1),
                tcp=replace(p.tcp, checksum=p.tcp.checksum ^ 1))
        for p in trace.packets
    ])


def header_state(pkt):
    return [(dict(vars(part)), hash(part), part.encode()) for part in (pkt, pkt.ip, pkt.tcp)]


def test_transform_does_not_mutate_input():
    # Checksums are written into fresh copies only, and always recomputed:
    # an input carrying wrong checksums comes out valid where rewritten.
    trace = with_wrong_checksums(clean())
    before = [header_state(p) for p in trace.packets]
    for label in ALL_LABELS:
        for overlap in (False, True):
            out = apply_evasion(trace, label, params(overlap=overlap))
            rewritten = [p for p in out.packets if not any(p is q for q in trace.packets)]
            assert rewritten
            for pkt in rewritten:
                valid_ip = pkt.ip.with_checksum().checksum
                if label is EvasionLabel.IP_CHAFF:
                    assert pkt.ip.checksum == valid_ip ^ 0xFFFF
                else:
                    assert pkt.ip.checksum == valid_ip
                if pkt.tcp is None:
                    continue
                valid_tcp = pkt.with_checksums().tcp.checksum
                if label is EvasionLabel.TCP_CHAFF:
                    assert pkt.tcp.checksum == valid_tcp ^ 0xFFFF
                else:
                    assert pkt.tcp.checksum == valid_tcp
    assert [header_state(p) for p in trace.packets] == before


def count_builds(monkeypatch):
    """Count the headers and records built from here on, by class name."""
    counts = collections.Counter()
    for cls in (Ipv4Header, TcpHeader, PacketRecord):
        def counting(self, _validate=cls.__post_init__):
            counts[type(self).__name__] += 1
            _validate(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    return counts


def test_clean_flow_builds_each_header_once(monkeypatch):
    counts = count_builds(monkeypatch)
    trace = clean(n=6)
    assert counts == {"Ipv4Header": 6, "TcpHeader": 6, "PacketRecord": 6}
    assert all(p.ip.checksum_valid() and p.tcp_checksum_valid() for p in trace.packets)


@pytest.mark.parametrize("label", ALL_LABELS, ids=lambda label: label.tag)
def test_transform_builds_one_copy_per_rewritten_header(monkeypatch, label):
    trace = clean()
    counts = count_builds(monkeypatch)
    for overlap in (False, True):
        counts.clear()
        out = apply_evasion(trace, label, params(overlap=overlap))
        rewritten = sum(not any(p is q for q in trace.packets) for p in out.packets)
        assert counts["PacketRecord"] == rewritten
        assert counts["Ipv4Header"] <= rewritten
        assert counts["TcpHeader"] <= rewritten


@st.composite
def odd_packets(draw, ts):
    """A TCP packet or a TCP-less fragment with random options, a payload of
    any length and checksums that are valid or arbitrary."""
    ihl = draw(st.integers(5, 13))  # room for ip_opt's 8 bytes
    ip_options = draw(st.binary(min_size=(ihl - 5) * 4, max_size=(ihl - 5) * 4))
    payload = draw(st.binary(max_size=80))
    fragment = draw(st.booleans())
    tcp = None
    if not fragment:
        tcp_options = draw(st.one_of(st.just(b""), option_blocks()))
        tcp = TcpHeader(
            draw(st.integers(0, 0xFFFF)), draw(st.integers(0, 0xFFFF)),
            draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 2**32 - 1)),
            5 + len(tcp_options) // 4, draw(st.integers(0, 0xFFF)),
            draw(st.integers(0, 0xFFFF)), draw(st.integers(0, 0xFFFF)),
            draw(st.integers(0, 0xFFFF)), tcp_options,
        )
    ip = Ipv4Header(
        ihl, draw(st.integers(0, 255)),
        ihl * 4 + (tcp.header_length if tcp else 0) + len(payload),
        draw(st.integers(0, 0xFFFF)),
        draw(st.integers(0, 7)) | (IP_MF if fragment and draw(st.booleans()) else 0),
        draw(st.integers(0, 64)) if fragment else 0,
        draw(st.integers(0, 255)), 6, draw(st.integers(0, 0xFFFF)),
        draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 2**32 - 1)), ip_options,
    )
    pkt = PacketRecord(ts, ip, tcp, payload)
    return pkt.with_checksums() if draw(st.booleans()) else pkt


@st.composite
def odd_traces(draw):
    start = draw(st.floats(0, 2e9))
    n = draw(st.integers(1, 6))
    packets = [draw(odd_packets(start + 0.01 * i)) for i in range(n)]
    return FlowTrace(key=(1, 2, 3, 4), packets=packets)


synth_params = st.builds(
    SynthParams,
    seed=st.integers(0, 2**32 - 1),
    frag_units=st.integers(1, 4),
    seg_bytes=st.integers(1, 24),
    chaff_rate=st.sampled_from([1.0, 0.5, 0.125]),
    ttl_floor=st.integers(0, 255),
    tos_values=st.lists(st.integers(0, 255), min_size=1, max_size=4).map(tuple),
    overlap=st.booleans(),
)


def outcome(transform, trace, label, params):
    try:
        return transform(trace, label, params)
    except (ValueError, EmptyPayloadError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("label", ALL_LABELS, ids=lambda label: label.tag)
@settings(max_examples=60, deadline=None)
@given(trace=odd_traces(), params=synth_params)
def test_transform_matches_the_copy_based_reference(label, trace, params):
    got = outcome(apply_evasion, trace, label, params)
    want = outcome(reference_apply_evasion, trace, label, params)
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.key == want.key
    assert got.packets == want.packets
    assert [p.encode() for p in got.packets] == [p.encode() for p in want.packets]
    assert [p.ts for p in got.packets] == [p.ts for p in want.packets]


def test_payload_transforms_need_data():
    syn_only = generate_clean_flow(0, 1)
    for label in (EvasionLabel.IP_FRAG, EvasionLabel.TCP_SEG):
        with pytest.raises(EmptyPayloadError):
            apply_evasion(syn_only, label, params())


def test_transform_determinism():
    trace = clean()
    for label in ALL_LABELS:
        a = apply_evasion(trace, label, params(seed=3))
        b = apply_evasion(trace, label, params(seed=3))
        assert [p.encode() for p in a.packets] == [p.encode() for p in b.packets]


# -- parameter validation ---------------------------------------------------


def test_synth_params_validation():
    with pytest.raises(ValueError):
        SynthParams(chaff_rate=1.5)
    with pytest.raises(ValueError):
        SynthParams(chaff_rate=0.0)
    with pytest.raises(ValueError):
        SynthParams(frag_units=0)
    with pytest.raises(ValueError):
        SynthParams(seg_bytes=0)
    with pytest.raises(ValueError):
        SynthParams(tos_values=())
    with pytest.raises(ValueError):
        SynthParams(ttl_floor=-1)
    # values outside a header byte would fail later, inside encode
    with pytest.raises(ValueError, match="ttl_floor"):
        SynthParams(ttl_floor=300)
    with pytest.raises(ValueError, match="tos_values"):
        SynthParams(tos_values=(256,))
    with pytest.raises(ValueError, match="tos_values"):
        SynthParams(tos_values=(16, -1))
    SynthParams(ttl_floor=255, tos_values=(0, 255))


# -- corpus builds ----------------------------------------------------------


def test_corpus_is_balanced_and_label_major():
    corpus = build_labeled_corpus(3, params(), seed=1)
    assert len(corpus) == 24
    labels = [label for _, label in corpus]
    assert labels == sorted(labels)
    for label in range(8):
        assert labels.count(label) == 3


def test_corpus_with_clean_class():
    corpus = build_labeled_corpus(2, params(), seed=1, include_clean=True)
    labels = [label for _, label in corpus]
    assert labels.count(CLEAN_LABEL) == 2
    assert len(corpus) == 18


def test_corpus_deterministic():
    a = build_labeled_corpus(2, params(), seed=5)
    b = build_labeled_corpus(2, params(), seed=5)
    for (ta, la), (tb, lb) in zip(a, b):
        assert la == lb
        assert [p.encode() for p in ta.packets] == [p.encode() for p in tb.packets]


def test_corpus_packet_counts_in_range():
    corpus = build_labeled_corpus(2, params(), seed=0, n_packets_range=(4, 8))
    # transformed traces can grow, but the ip_tos/ip_opt classes keep
    # the clean packet count, which must stay within the requested range
    for trace, label in corpus:
        if label in (EvasionLabel.IP_OPT, EvasionLabel.IP_TOS):
            assert 4 <= len(trace.packets) <= 8


def test_each_ip_header_is_summed_once_and_never_encoded(monkeypatch):
    # synthesis sums each IP header from its fields as it writes the
    # checksum and keeps the sum for the receiver; the features read the
    # TCP verdict the receiver kept on each record
    zeroed_checksum = Ipv4Header._zeroed_checksum
    tcp_checksum_valid = PacketRecord.tcp_checksum_valid
    encode = Ipv4Header.encode
    ip_sums, tcp_verdicts, encoded = [], [], []

    def counting_zeroed_checksum(self):
        if self._zeroed is None:
            ip_sums.append(self)
        return zeroed_checksum(self)

    def counting_tcp_checksum_valid(self):
        if self._tcp_valid is None:
            tcp_verdicts.append(self)
        return tcp_checksum_valid(self)

    def counting_encode(self):
        encoded.append(self)
        return encode(self)

    monkeypatch.setattr(Ipv4Header, "_zeroed_checksum", counting_zeroed_checksum)
    monkeypatch.setattr(PacketRecord, "tcp_checksum_valid", counting_tcp_checksum_valid)
    monkeypatch.setattr(Ipv4Header, "encode", counting_encode)
    flows = [trace for overlap in (False, True)
             for trace, _ in build_labeled_corpus(2, params(overlap=overlap), seed=9)]
    matrices = []
    for trace in flows:
        normalize_receive(trace)
        matrices.append(feature_matrix(trace))
    assert encoded == []
    assert len({id(ip) for ip in ip_sums}) == len(ip_sums)
    assert {id(p.ip) for trace in flows for p in trace.packets} <= {id(ip) for ip in ip_sums}
    assert len({id(pkt) for pkt in tcp_verdicts}) == len(tcp_verdicts)
    monkeypatch.undo()
    for trace, matrix in zip(flows, matrices):
        assert matrix.tobytes() == reference_feature_matrix(trace).tobytes()


# Recorded from the build that copied headers with dataclasses.replace.
GOLDEN_CORPUS = {
    False: ("c30f480581e65e912c183a997db73c01dd209f715cdb3b169865e8a9d2856412",
            "1d025264395f369d129ee9ab35805eafbfda3bfb613f70911a249aedc0bf6288"),
    True: ("3f92d721e20f4e45ede84e017acdff4bd8a499b04cf36c02c9c44629cf01631e",
           "5e8357870d14988ad64861c0fe67e77414c313b8cc457204ed7c81d913a1c11b"),
}

# Recorded from the build whose transforms copied packets with
# with_checksums; the corpus is shaped like the benchmark's detect workload.
GOLDEN_DETECT_CORPUS = {
    False: ("9dca30c5642d35087195576170d5fabd2e7903bebf2265deb7e5060754141eb2",
            "13d4d74a8ed6c591ac67c698e2328920c8c3068f65a996427a49333bfd14baff"),
    True: ("37f043e0ffb962ae5f2619cf497b12a3fe4a6b307a86241a2d68c01da13f928b",
           "1bf11ccf7b19095ccafce0692535c176554fa54ff6a6822428c9502055e81717"),
}


def corpus_digests(corpus):
    buf = io.BytesIO()
    write_pcap(buf, [p for trace, _ in corpus for p in trace.packets])
    features = b"".join(
        np.ascontiguousarray(feature_matrix(trace), dtype="<f4").tobytes() for trace, _ in corpus
    )
    return hashlib.sha256(buf.getvalue()).hexdigest(), hashlib.sha256(features).hexdigest()


@pytest.mark.parametrize("overlap", [False, True])
def test_corpus_bytes_match_golden(overlap):
    corpus = build_labeled_corpus(2, SynthParams(overlap=overlap), seed=2024)
    assert corpus_digests(corpus) == GOLDEN_CORPUS[overlap]


@pytest.mark.parametrize("overlap", [False, True])
def test_detect_shaped_corpus_bytes_match_golden(overlap):
    params = SynthParams(frag_units=8, seg_bytes=64, overlap=overlap)
    corpus = build_labeled_corpus(2, params, seed=2024, n_packets_range=(12, 24),
                                  payload_len_range=(128, 512))
    assert corpus_digests(corpus) == GOLDEN_DETECT_CORPUS[overlap]
