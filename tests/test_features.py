"""Per-packet feature rows, sentinels, windowing, scaling."""

import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evasionlab.errors import TraceTooShortError
from evasionlab.features import (
    ABSENT,
    FEATURE_DIM,
    FEATURE_NAMES,
    FRAME_MAX,
    FRAME_MIN,
    NO_PREDECESSOR,
    FeatureScaler,
    FeatureSequence,
    extract_sequences,
    feature_matrix,
    window_matrix,
)
from evasionlab.packets import (
    IP_MF,
    TCP_ACK,
    TCP_PSH,
    FlowTrace,
    Ipv4Header,
    PacketRecord,
    TcpHeader,
)
from evasionlab.pcapio import group_flows, read_pcap, write_pcap
from evasionlab.synth import (
    EvasionLabel,
    SynthParams,
    apply_evasion,
    build_labeled_corpus,
    generate_clean_flow,
)
from helpers import (
    assert_table_path_matches_reference,
    handshake_trace,
    make_packet,
    reference_feature_matrix,
    wire_packet,
)

# column indices, fixed by the format
IPLEN, IPOFF, IPFLAG, IPTTLDIFF = 0, 1, 2, 3
TCPCK, TCPLEN, TCPFLAG, TCPSYN = 4, 5, 6, 7
TCPSEQD, TCPOVER, TCPMSS, TCPWS = 8, 9, 10, 11
TCPTS, IPROUTE, IPOPTLEN, IPTOS = 12, 13, 14, 15


def test_layout_constants():
    assert FEATURE_DIM == 16
    assert len(FEATURE_NAMES) == 16
    assert (FRAME_MIN, FRAME_MAX) == (3, 7)
    assert NO_PREDECESSOR == -1.0
    assert ABSENT == -2.0


def test_clean_flow_first_row():
    trace = handshake_trace([b"x" * 16, b"y" * 16])
    m = feature_matrix(trace)
    assert m.shape == (3, 16)
    assert m.dtype == np.float32
    row = m[0]
    assert row[IPLEN] == 40  # 20 IP + 20 TCP + 0 payload
    assert row[IPOFF] == NO_PREDECESSOR
    assert row[IPFLAG] == 2  # DF only
    assert row[IPTTLDIFF] == NO_PREDECESSOR
    assert row[TCPCK] == 1
    assert row[TCPLEN] == 0
    assert row[TCPSYN] == 1
    assert row[TCPSEQD] == 0  # first packet sets the expectation
    assert row[TCPOVER] == NO_PREDECESSOR
    assert row[TCPMSS] == ABSENT
    assert row[TCPWS] == ABSENT
    assert row[TCPTS] == 0
    assert row[IPROUTE] == 0
    assert row[IPOPTLEN] == 0
    assert row[IPTOS] == 0


def test_clean_flow_data_rows_track_sequence():
    trace = handshake_trace([b"x" * 16, b"y" * 12])
    m = feature_matrix(trace)
    assert m[1][TCPLEN] == 16
    assert m[1][TCPSEQD] == 0  # seq == isn+1 as expected
    assert m[2][TCPSEQD] == 0
    assert m[1][TCPOVER] == 0
    assert m[1][IPTTLDIFF] == 0
    assert m[2][IPLEN] == 52


def test_syn_flag_bits():
    trace = handshake_trace([b"z" * 16])
    m = feature_matrix(trace)
    assert m[0][TCPFLAG] == 2  # SYN
    assert m[1][TCPFLAG] == 24  # PSH|ACK


def test_ecn_segment_reads_valid_and_its_classic_flags():
    ecn = PacketRecord.decode(wire_packet(b"data", seq=101, tcp_flags=TCP_PSH | TCP_ACK | 0xC0))
    m = feature_matrix(FlowTrace(key=(0, 0, 0, 0), packets=[make_packet(100, b"", syn=True), ecn]))
    assert m[1][TCPCK] == 1
    assert m[1][TCPFLAG] == TCP_PSH | TCP_ACK  # ECE and CWR feed no dim
    assert m[1][TCPSEQD] == 0


def test_ttl_chaff_signature():
    # chaff expiring at the floor alternates the TTL delta column
    trace = generate_clean_flow(3, 3)
    out = apply_evasion(trace, EvasionLabel.IP_TTL, SynthParams(seed=1))
    m = feature_matrix(out)
    assert m[:, IPTTLDIFF].tolist() == [-1.0, -63.0, 63.0, -63.0, 63.0, -63.0]


def test_fragment_rows_mark_tcp_columns_absent():
    trace = generate_clean_flow(0, 2, payload_len_range=(4, 4))
    out = apply_evasion(trace, EvasionLabel.IP_FRAG, SynthParams(frag_units=1))
    m = feature_matrix(out)
    assert m.shape == (4, 16)
    for row in m[1:]:
        for col in (TCPCK, TCPLEN, TCPFLAG, TCPSYN, TCPSEQD, TCPMSS, TCPWS, TCPTS):
            assert row[col] == ABSENT
    # fragment offsets advance 0, 1, 2 -> deltas 0, 1, 1
    assert m[1:, IPOFF].tolist() == [0.0, 1.0, 1.0]
    # MF set on all but the last fragment; DF cleared
    assert m[1][IPFLAG] == 1
    assert m[2][IPFLAG] == 1
    assert m[3][IPFLAG] == 0
    # overlap between a fragment and its TCP-less neighbor is unknowable
    assert m[2][TCPOVER] == ABSENT


def test_segment_overlap_and_negative_seq_delta():
    trace = generate_clean_flow(0, 2, payload_len_range=(24, 24))
    out = apply_evasion(
        trace, EvasionLabel.TCP_SEG, SynthParams(seg_bytes=8, overlap=True)
    )
    m = feature_matrix(out)
    # rows: syn, seg0, junk@0, seg1, junk@8, seg2
    junk_rows = (2, 4)
    for r in junk_rows:
        assert m[r][TCPSEQD] == -8  # re-claims the previous 8 bytes
        assert m[r][TCPOVER] == 8
    real_rows = (1, 3, 5)
    for r in real_rows:
        assert m[r][TCPOVER] in (0.0, 8.0)


def test_tcp_options_columns():
    trace = generate_clean_flow(1, 3)
    out = apply_evasion(trace, EvasionLabel.TCP_OPT, SynthParams(seed=2))
    m = feature_matrix(out)
    assert m[0][TCPMSS] == 1460
    assert m[0][TCPTS] == 0
    for row in m[1:]:
        assert row[TCPMSS] == ABSENT
        assert row[TCPTS] == 1
    assert all(row[TCPWS] == ABSENT for row in m)


def test_missing_tcp_options_read_absent():
    m = feature_matrix(handshake_trace([b"x" * 8]))
    assert m[:, [TCPMSS, TCPWS]].tolist() == [[ABSENT, ABSENT]] * 2
    assert m[:, TCPTS].tolist() == [0.0, 0.0]


def test_ip_option_columns():
    trace = generate_clean_flow(1, 3)
    out = apply_evasion(trace, EvasionLabel.IP_OPT, SynthParams())
    m = feature_matrix(out)
    assert all(row[IPROUTE] == 1 for row in m)
    assert all(row[IPOPTLEN] == 8 for row in m)


def test_tos_column_cycles():
    trace = generate_clean_flow(1, 6)
    out = apply_evasion(trace, EvasionLabel.IP_TOS, SynthParams())
    m = feature_matrix(out)
    assert m[:, IPTOS].tolist() == [16.0, 24.0, 17.0, 8.0, 16.0, 24.0]


def test_bad_tcp_checksum_column():
    trace = generate_clean_flow(1, 4)
    out = apply_evasion(trace, EvasionLabel.TCP_CHAFF, SynthParams())
    m = feature_matrix(out)
    assert m[0::2, TCPCK].tolist() == [1.0] * 4
    assert m[1::2, TCPCK].tolist() == [0.0] * 4


def test_sequence_delta_wrap_centered():
    isn = 2**32 - 10
    trace = handshake_trace([b"a" * 16, b"b" * 16], isn=isn)
    m = feature_matrix(trace)
    # crossing the 2^32 boundary must not blow up the delta
    assert m[:, TCPSEQD].tolist() == [0.0, 0.0, 0.0]


# -- windowing --------------------------------------------------------------


def test_window_exact_multiple():
    m = np.zeros((10, 16), dtype=np.float32)
    wins = window_matrix(m, 5)
    assert [w.shape[0] for w in wins] == [5, 5]


def test_window_short_tail_kept_at_three():
    m = np.zeros((13, 16), dtype=np.float32)
    assert [w.shape[0] for w in window_matrix(m, 5)] == [5, 5, 3]


def test_window_short_tail_dropped_below_three():
    m = np.zeros((12, 16), dtype=np.float32)
    assert [w.shape[0] for w in window_matrix(m, 5)] == [5, 5]


@given(st.integers(3, 60), st.integers(3, 7))
def test_window_row_accounting(n, frame):
    m = np.arange(n * 16, dtype=np.float32).reshape(n, 16)
    wins = window_matrix(m, frame)
    tail = n % frame
    expect = n // frame + (1 if tail >= 3 else 0)
    assert len(wins) == expect
    covered = sum(w.shape[0] for w in wins)
    assert covered == n - (tail if tail < 3 else 0)
    # windows tile the matrix in order
    flat = np.concatenate(wins) if wins else np.zeros((0, 16))
    assert np.array_equal(flat, m[: covered])


def test_extract_sequences_short_trace_rejected():
    trace = handshake_trace([b"x" * 16])  # 2 packets
    with pytest.raises(TraceTooShortError):
        extract_sequences(trace, 5, 0)


def test_extract_sequences_labels_every_window():
    trace = generate_clean_flow(0, 8)
    seqs = extract_sequences(trace, 3, 4)
    assert len(seqs) == 2  # 8 rows in frames of 3 -> 3+3, tail 2 dropped
    assert all(s.label == 4 for s in seqs)


def test_feature_sequence_validation():
    good = np.zeros((5, 16), dtype=np.float32)
    FeatureSequence(rows=good, label=0)
    with pytest.raises(ValueError):
        FeatureSequence(rows=np.zeros((5, 15), dtype=np.float32), label=0)
    with pytest.raises(ValueError):
        FeatureSequence(rows=np.zeros((2, 16), dtype=np.float32), label=0)
    with pytest.raises(ValueError):
        FeatureSequence(rows=np.zeros((8, 16), dtype=np.float32), label=0)
    with pytest.raises(ValueError):
        FeatureSequence(rows=good, label=-1)
    with pytest.raises(ValueError):
        FeatureSequence(rows=good, label=256)


# -- the one-pass rows against the per-row reference -------------------------

# a small set of kinds, so blocks repeat them: MSS, window scale, SACK-permitted,
# timestamp and an unknown kind; record route, loose and strict source route
_KINDS = (2, 3, 4, 8, 30, 7, 131, 137)


@st.composite
def padded_option_blocks(draw):
    """Option blocks of whole words: well-formed options, NOP and EOL, and
    options whose length is zero, one or past the end of the block, padded
    with NOP or EOL; the 40-byte cut may split an option."""
    kind = st.sampled_from(_KINDS)
    element = st.one_of(
        st.sampled_from([b"\x00", b"\x01"]),
        st.builds(lambda k, v: bytes([k, len(v) + 2]) + v, kind, st.binary(max_size=8)),
        st.builds(lambda k, n: bytes([k, n]), kind, st.sampled_from([0, 1, 60, 255])),
    )
    block = b"".join(draw(st.lists(element, max_size=8)))
    block += draw(st.sampled_from([b"\x00", b"\x01"])) * (-len(block) % 4)
    return block[:40]


def _ip(draw, payload_len, *, flags, offset, tcp_len=0):
    options = draw(padded_option_blocks())
    ihl = 5 + len(options) // 4
    return Ipv4Header(
        ihl=ihl, tos=draw(st.integers(0, 255)),
        total_length=ihl * 4 + tcp_len + payload_len,
        identification=draw(st.integers(0, 3)), flags=flags, frag_offset=offset,
        ttl=draw(st.integers(0, 255)), protocol=6, checksum=0,
        src_addr=1, dst_addr=2, options=options,
    )


@st.composite
def mixed_flows(draw):
    """Segments and fragments with sequence numbers that may wrap, payloads
    of any length (zero and odd included), ECN and reserved flag bits, and
    valid or arbitrary checksums."""
    seq = draw(st.one_of(st.integers(2**32 - 100, 2**32 - 1), st.integers(0, 2**32 - 1)))
    packets = []
    for _ in range(draw(st.integers(1, 8))):
        payload = draw(st.binary(max_size=41))
        if draw(st.integers(0, 3)) == 0:
            offset = draw(st.integers(0, 300))
            mf = True if offset == 0 else draw(st.booleans())
            flags = (IP_MF if mf else 0) | draw(st.sampled_from([0, 2, 4, 6]))
            pkt = PacketRecord(ts=0.0, ip=_ip(draw, len(payload), flags=flags, offset=offset),
                               tcp=None, payload=payload)
        else:
            seq = (seq + draw(st.integers(-40, 80))) % 2**32
            options = draw(padded_option_blocks())
            tcp = TcpHeader(
                src_port=1, dst_port=2, seq=seq, ack=draw(st.integers(0, 2**32 - 1)),
                data_offset=5 + len(options) // 4, flags=draw(st.integers(0, 0xFFF)),
                checksum=draw(st.integers(0, 0xFFFF)), options=options,
            )
            ip = _ip(draw, len(payload), flags=draw(st.sampled_from([0, 2, 4, 6])),
                     offset=0, tcp_len=tcp.data_offset * 4)
            pkt = PacketRecord(ts=0.0, ip=ip, tcp=tcp, payload=payload)
        if draw(st.booleans()):
            pkt = pkt.with_checksums()
        packets.append(pkt)
    return FlowTrace(key=(1, 1, 2, 2), packets=packets)


@given(mixed_flows())
def test_feature_matrix_matches_the_reference_bytes(trace):
    got = feature_matrix(trace)
    assert got.shape == (len(trace), FEATURE_DIM) and got.dtype == np.float32
    assert got.tobytes() == reference_feature_matrix(trace).tobytes()


@given(mixed_flows())
def test_captured_flow_features_match_the_reference_bytes(trace):
    buf = io.BytesIO()
    write_pcap(buf, trace.packets)
    assert_table_path_matches_reference(buf.getvalue())


def test_sequence_jump_of_half_the_space_reads_negative():
    # a difference of exactly 2**31 is the one that both signs could claim
    trace = FlowTrace(key=(1, 1, 2, 2), packets=[make_packet(5, b""), make_packet(5 + 2**31, b"")])
    m = feature_matrix(trace)
    assert m[1][TCPSEQD] == -(2**31)
    assert m.tobytes() == reference_feature_matrix(trace).tobytes()


def test_regrouped_detect_capture_matches_the_reference_bytes():
    flows = build_labeled_corpus(
        3, SynthParams(frag_units=8, seg_bytes=64), seed=5,
        n_packets_range=(12, 24), payload_len_range=(128, 512),
    )
    buf = io.BytesIO()
    write_pcap(buf, [p for trace, _ in flows for p in trace.packets])
    regrouped = group_flows(read_pcap(io.BytesIO(buf.getvalue())).records)
    assert len(regrouped) == len(flows)
    for trace in regrouped:
        assert feature_matrix(trace).tobytes() == reference_feature_matrix(trace).tobytes()


# -- scaling ----------------------------------------------------------------


def test_scaler_normalizes_fit_data():
    rng = np.random.default_rng(0)
    rows = [rng.normal(5.0, 3.0, size=(5, 16)).astype(np.float32) for _ in range(40)]
    samples = [FeatureSequence(rows=r, label=0) for r in rows]
    scaler = FeatureScaler.fit(samples)
    stacked = np.concatenate([scaler.transform(s.rows) for s in samples])
    assert np.allclose(stacked.mean(axis=0), 0.0, atol=1e-5)
    assert np.allclose(stacked.std(axis=0), 1.0, atol=1e-4)


def test_scaler_constant_column_left_finite():
    rows = np.ones((5, 16), dtype=np.float32)
    samples = [FeatureSequence(rows=rows, label=0) for _ in range(3)]
    scaler = FeatureScaler.fit(samples)
    out = scaler.transform(rows)
    assert np.all(np.isfinite(out))
    assert np.allclose(out, 0.0)


def test_scaler_output_is_float64():
    rows = np.ones((5, 16), dtype=np.float32)
    scaler = FeatureScaler.fit([FeatureSequence(rows=rows, label=0)])
    assert scaler.transform(rows).dtype == np.float64
