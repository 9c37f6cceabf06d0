"""Hand-rolled builders and hypothesis strategies shared across test modules.

Everything here constructs packets the long way, without going through the
synthesis code, so tests keep an independent path to valid on-the-wire
structures.
"""

import io
import random
import struct
from dataclasses import replace
from typing import BinaryIO

import numpy as np
from hypothesis import strategies as st

from evasionlab.errors import (
    BadMagicError,
    EmptyPayloadError,
    EvasionLabError,
    ShapeMismatchError,
    TruncatedFileError,
)
from evasionlab.features import (
    ABSENT,
    FEATURE_DIM,
    NO_PREDECESSOR,
    _ROUTE_KINDS,
    _option_number,
    _option_values,
    feature_matrix,
)
from evasionlab.neural import (
    LstmCellParams,
    ModelConfig,
    _gather_rows,
    _time_major_reversal,
    lstm_param_count,
)
from evasionlab.optim import Optimizer, OptimizerConfig
from evasionlab.packets import (
    IPPROTO_TCP,
    IP_DF,
    IP_MF,
    TCP_ACK,
    TCP_FIN,
    TCP_OPT_MSS,
    TCP_OPT_NOP,
    TCP_OPT_TIMESTAMP,
    TCP_OPT_WSCALE,
    TCP_PSH,
    TCP_SYN,
    FlowKey,
    FlowTrace,
    Ipv4Header,
    PacketRecord,
    TcpHeader,
    evolve,
    tcp_checksum,
)
from evasionlab.pcapio import (
    ETH_HEADER_LEN,
    GLOBAL_HEADER,
    LINKTYPE_ETHERNET,
    PCAP_MAGIC_BE,
    PCAP_MAGIC_LE,
    RECORD_HEADER,
    Capture,
    CaptureStats,
    group_flows,
    read_pcap,
)
from evasionlab.synth import EvasionLabel, SynthParams


def addr_to_str(addr: int) -> str:
    return ".".join(str((addr >> s) & 0xFF) for s in (24, 16, 8, 0))


def str_to_addr(text: str) -> int:
    parts = [int(p) for p in text.split(".")]
    if len(parts) != 4 or any(not 0 <= p <= 255 for p in parts):
        raise ValueError(f"bad IPv4 address {text!r}")
    return (parts[0] << 24) | (parts[1] << 16) | (parts[2] << 8) | parts[3]


def flow_key_of(pkt: PacketRecord) -> FlowKey:
    if pkt.tcp is None:
        raise ShapeMismatchError("cannot derive a flow key from a TCP-less fragment")
    return (pkt.ip.src_addr, pkt.tcp.src_port, pkt.ip.dst_addr, pkt.tcp.dst_port)


def _centered_u32(delta: int) -> int:
    delta &= 0xFFFFFFFF
    return delta - (1 << 32) if delta >= (1 << 31) else delta


def reference_feature_matrix(trace: FlowTrace) -> np.ndarray:
    """The per-row feature loop that :func:`evasionlab.features.feature_matrix`
    replaced, kept as its reference: one row per packet, shape
    (len(trace), 16), float32.

    The sequence delta of the first TCP packet reads 0: it sets the
    stream's first expectation. Dim 4 compares the stored TCP checksum with
    the byte-level checksum of the header encoded with the field zeroed.
    """
    rows = np.empty((len(trace.packets), FEATURE_DIM), dtype=np.float32)
    expected_seq: int | None = None
    prev: PacketRecord | None = None
    for i, pkt in enumerate(trace.packets):
        ip, tcp = pkt.ip, pkt.tcp
        if prev is None:
            d_offset = d_ttl = overlap = NO_PREDECESSOR
        else:
            d_offset = ip.frag_offset - prev.ip.frag_offset
            d_ttl = ip.ttl - prev.ip.ttl
            if prev.tcp is None or tcp is None:
                overlap = ABSENT
            else:
                overlap = max(0, _centered_u32(prev.tcp.seq + len(prev.payload) - tcp.seq))
        iproute = 0.0 if _ROUTE_KINDS.isdisjoint(_option_values(ip.options)) else 1.0
        if tcp is None:
            # a fragment exposes no TCP header: dims 4-8 and 10-12 absent
            valid = length = flags = syn = seq_delta = mss = wscale = tsval = ABSENT
        else:
            zeroed = replace(tcp, checksum=0).encode()
            computed = tcp_checksum(ip.src_addr, ip.dst_addr, zeroed, pkt.payload)
            valid = 1.0 if computed == tcp.checksum else 0.0
            length = len(pkt.payload)
            flags = tcp.flags & 0x3F
            syn = 1 if tcp.flags & TCP_SYN else 0
            seq_delta = 0 if expected_seq is None else _centered_u32(tcp.seq - expected_seq)
            options = _option_values(tcp.options)
            mss = _option_number(options, TCP_OPT_MSS)
            wscale = _option_number(options, TCP_OPT_WSCALE)
            tsval = 1.0 if TCP_OPT_TIMESTAMP in options else 0.0
            expected_seq = (tcp.seq + length + syn + (tcp.flags & TCP_FIN)) & 0xFFFFFFFF
        rows[i] = (
            ip.total_length, d_offset, ip.flags & (IP_DF | IP_MF), d_ttl,
            valid, length, flags, syn, seq_delta, overlap, mss, wscale, tsval,
            iproute, (ip.ihl - 5) * 4, ip.tos,
        )
        prev = pkt
    return rows


def reference_read_pcap(fh: BinaryIO) -> Capture:
    """The per-frame loop that :func:`evasionlab.pcapio.read_pcap` replaced,
    kept as its reference: each frame is decoded to a record at its offsets
    in the one read buffer, and the records are a list."""
    data = fh.read()
    if len(data) < GLOBAL_HEADER.size:
        raise TruncatedFileError(
            f"pcap global header needs {GLOBAL_HEADER.size} bytes, got {len(data)}"
        )
    (magic_le,) = struct.unpack_from("<I", data)
    if magic_le == PCAP_MAGIC_LE:
        endian = "<"
    elif magic_le == PCAP_MAGIC_BE:
        endian = ">"
    else:
        raise BadMagicError(f"not a classic pcap file (magic 0x{magic_le:08x})")
    network = struct.unpack_from(endian + GLOBAL_HEADER.format, data)[-1]
    if network != LINKTYPE_ETHERNET:
        raise BadMagicError(f"unsupported link type {network}, want Ethernet (1)")

    unpack_record = struct.Struct(endian + RECORD_HEADER.format).unpack_from
    records: list[PacketRecord] = []
    total = skipped_link = skipped_protocol = 0
    pos, size = GLOBAL_HEADER.size, len(data)
    while pos < size:
        if size - pos < RECORD_HEADER.size:
            raise TruncatedFileError("pcap record header truncated at end of file")
        ts_sec, ts_usec, incl_len, _orig_len = unpack_record(data, pos)
        start = pos + RECORD_HEADER.size
        pos = start + incl_len
        if pos > size:
            raise TruncatedFileError(
                f"expected {incl_len} bytes for pcap record body, got {size - start}"
            )
        total += 1
        if incl_len < ETH_HEADER_LEN or data[start + 12] != 0x08 or data[start + 13] != 0x00:
            skipped_link += 1
            continue
        try:
            pkt = PacketRecord.decode(
                data, ts_sec + ts_usec / 1_000_000, start + ETH_HEADER_LEN, pos
            )
        except ValueError:
            skipped_protocol += 1
            continue
        if pkt.ip.protocol != IPPROTO_TCP:
            skipped_protocol += 1
            continue
        records.append(pkt)
    stats = CaptureStats(
        packets_total=total,
        packets_tcp=len(records),
        packets_skipped=skipped_link + skipped_protocol,
        skipped_link=skipped_link,
        skipped_protocol=skipped_protocol,
    )
    return Capture(records=records, stats=stats)


def reference_group_flows(records: list[PacketRecord]) -> list[FlowTrace]:
    """The loop over packet objects that :func:`evasionlab.pcapio.group_flows`
    replaced, kept as its reference; each flow's packets are a list."""
    flows: dict[FlowKey, list[PacketRecord]] = {}  # in order of first packet
    frag_owner: dict[tuple[int, int, int], FlowKey] = {}
    for pkt in records:
        ip, tcp = pkt.ip, pkt.tcp
        if tcp is not None:
            key = (ip.src_addr, tcp.src_port, ip.dst_addr, tcp.dst_port)
        else:
            frag = (ip.src_addr, ip.dst_addr, ip.identification)
            key = frag_owner.get(frag)
            if key is None:
                if ip.frag_offset != 0 or len(pkt.payload) < 4:
                    continue
                # first fragment: TCP source/destination ports lead the payload
                sport, dport = struct.unpack_from("!HH", pkt.payload)
                key = frag_owner[frag] = (ip.src_addr, sport, ip.dst_addr, dport)
        flow = flows.get(key)
        if flow is None:
            flows[key] = [pkt]
        else:
            flow.append(pkt)
    return [FlowTrace(key=key, packets=packets) for key, packets in flows.items()]


def assert_table_path_matches_reference(raw: bytes) -> None:
    """Reading, grouping and featurizing the capture ``raw`` through the
    packet table gives what the reference loops give: the same error type
    and message, or the same stats, records, flows and feature bytes. The
    records' own table (``group_flows`` on a list) must agree too."""
    try:
        want = reference_read_pcap(io.BytesIO(raw))
    except EvasionLabError as exc:
        try:
            read_pcap(io.BytesIO(raw))
        except EvasionLabError as got:
            assert (type(got), str(got)) == (type(exc), str(exc))
        else:
            raise AssertionError(f"read_pcap did not raise {exc!r}")
        return
    cap = read_pcap(io.BytesIO(raw))
    assert cap.stats == want.stats
    assert list(cap.records) == want.records
    reference = reference_group_flows(want.records)
    for flows in (group_flows(cap.records), group_flows(want.records)):
        assert [(f.key, len(f)) for f in flows] == [(f.key, len(f)) for f in reference]
        for got, ref in zip(flows, reference):
            assert list(got.packets) == ref.packets
            assert feature_matrix(got).tobytes() == reference_feature_matrix(ref).tobytes()


def _flip_ip_checksum(pkt: PacketRecord) -> PacketRecord:
    return evolve(pkt, ip=evolve(pkt.ip, checksum=pkt.ip.checksum ^ 0xFFFF))


def _flip_tcp_checksum(pkt: PacketRecord) -> PacketRecord:
    return evolve(pkt, tcp=evolve(pkt.tcp, checksum=pkt.tcp.checksum ^ 0xFFFF))


def reference_apply_evasion(
    trace: FlowTrace, label: EvasionLabel, params: SynthParams
) -> FlowTrace:
    """The copy-based transforms that :func:`evasionlab.synth.apply_evasion`
    replaced, kept as its reference: every rewritten packet is one
    ``with_checksums`` copy of its source, and a chaff's checksum is then
    flipped (``valid ^ 0xFFFF``) in a further copy. The random draws come
    in the same order as in the library."""
    rng = random.Random(params.seed)
    label = EvasionLabel(label)
    if label in (EvasionLabel.IP_FRAG, EvasionLabel.TCP_SEG):
        if not any(p.payload for p in trace.packets if p.tcp is not None):
            raise EmptyPayloadError(f"{label.tag} needs at least one payload-bearing packet")
    if label is EvasionLabel.IP_OPT and any(len(p.ip.options) > 32 for p in trace.packets):
        raise ValueError("ip_opt needs 8 free IP option bytes; a header has fewer")
    if label is EvasionLabel.TCP_OPT:
        tsval = rng.randrange(1, 1 << 31)
    out: list[PacketRecord] = []
    for j, pkt in enumerate(trace.packets):
        ip, tcp = pkt.ip, pkt.tcp
        if label is EvasionLabel.IP_CHAFF:
            out.append(pkt)
            if rng.random() >= params.chaff_rate:
                continue
            junk = rng.randbytes(rng.randint(8, 64))
            length = ip.header_length + (tcp.header_length if tcp else 0) + len(junk)
            out.append(_flip_ip_checksum(pkt.with_checksums(
                {"total_length": length}, ts=pkt.ts + 1e-5, payload=junk)))
        elif label is EvasionLabel.IP_TTL:
            out.append(pkt)
            if rng.random() >= params.chaff_rate:
                continue
            junk = rng.randbytes(len(pkt.payload))
            out.append(pkt.with_checksums(
                {"ttl": params.ttl_floor}, ts=pkt.ts + 1e-5, payload=junk))
        elif label is EvasionLabel.TCP_CHAFF:
            out.append(pkt)
            if tcp is None or rng.random() >= params.chaff_rate:
                continue
            junk = rng.randbytes(len(pkt.payload) or 8)
            length = ip.header_length + tcp.header_length + len(junk)
            out.append(_flip_tcp_checksum(pkt.with_checksums(
                {"total_length": length}, ts=pkt.ts + 1e-5, payload=junk)))
        elif label is EvasionLabel.IP_FRAG:
            if tcp is None or not pkt.payload:
                out.append(pkt)
                continue
            size = params.frag_units * 8
            raw = pkt.ip_payload()
            chunks = [raw[i : i + size] for i in range(0, len(raw), size)]
            if len(chunks) == 1:
                out.append(pkt)
                continue
            for k, chunk in enumerate(chunks):
                offset_units = k * params.frag_units
                if params.overlap and k > 0:
                    offset_units -= 1
                    chunk = rng.randbytes(8) + chunk
                out.append(PacketRecord(pkt.ts + k * 1e-5, ip.with_checksum(
                    flags=IP_MF if k < len(chunks) - 1 else 0,
                    frag_offset=offset_units,
                    total_length=ip.header_length + len(chunk),
                ), None, chunk))
        elif label is EvasionLabel.IP_OPT:
            opts = bytes([1, 7, 7, 4, 0, 0, 0, 0])
            out.append(pkt.with_checksums({
                "ihl": ip.ihl + 2,
                "total_length": ip.total_length + len(opts),
                "options": ip.options + opts,
            }))
        elif label is EvasionLabel.IP_TOS:
            out.append(pkt.with_checksums(
                {"tos": params.tos_values[j % len(params.tos_values)]}))
        elif label is EvasionLabel.TCP_OPT:
            if tcp is None or not (tcp.flags & TCP_SYN or pkt.payload):
                out.append(pkt)
                continue
            if tcp.flags & TCP_SYN:
                options = struct.pack("!BBH", TCP_OPT_MSS, 4, 1460)
            else:
                options = struct.pack("!BBBBII", TCP_OPT_NOP, TCP_OPT_NOP,
                                      TCP_OPT_TIMESTAMP, 10, (tsval + j) & 0xFFFFFFFF, 0)
            out.append(pkt.with_checksums(
                {"total_length": ip.total_length + len(options) - len(tcp.options)},
                {"data_offset": 5 + len(options) // 4, "options": options},
            ))
        else:  # TCP_SEG
            step = params.seg_bytes
            if tcp is None or len(pkt.payload) <= step:
                out.append(pkt)
                continue
            pieces = []  # (seq, payload) in emission order
            for k in range(0, len(pkt.payload), step):
                if params.overlap and k > 0:
                    pieces.append((tcp.seq + k - step, rng.randbytes(step)))
                pieces.append((tcp.seq + k, pkt.payload[k : k + step]))
            for emitted, (seq, payload) in enumerate(pieces):
                out.append(pkt.with_checksums(
                    {"total_length": ip.header_length + tcp.header_length + len(payload)},
                    {"seq": seq & 0xFFFFFFFF},
                    ts=pkt.ts + emitted * 1e-4,
                    payload=payload,
                ))
    return FlowTrace(key=trace.key, packets=out)


SRC = str_to_addr("10.0.0.1")
DST = str_to_addr("192.168.0.9")
SPORT = 40000
DPORT = 80


def reference_checksum(data: bytes) -> int:
    """Independent RFC 1071 implementation: deferred-carry accumulation."""
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def wire_packet(
    payload: bytes = b"",
    *,
    seq: int = 1,
    tcp_flags: int = TCP_ACK,
    tcp_options: bytes = b"",
    ip_flags: int = IP_DF,
) -> bytes:
    """IPv4/TCP packet bytes packed by hand, with both checksums computed
    by :func:`reference_checksum` over the bytes as sent."""
    tcp = struct.pack(
        "!HHIIHHHH", SPORT, DPORT, seq, 1,
        (5 + len(tcp_options) // 4) << 12 | tcp_flags, 64240, 0, 0,
    ) + tcp_options
    segment = tcp + payload
    ip = struct.pack(
        "!BBHHHBBHII", 0x45, 0, 20 + len(segment), 7, ip_flags << 13, 64, 6, 0, SRC, DST
    )
    ip = ip[:10] + reference_checksum(ip).to_bytes(2, "big") + ip[12:]
    pseudo = struct.pack("!IIHH", SRC, DST, 6, len(segment))
    check = reference_checksum(pseudo + segment + bytes(len(segment) % 2))
    return ip + segment[:16] + check.to_bytes(2, "big") + segment[18:]


def make_ip(
    payload_len: int,
    *,
    ihl: int = 5,
    tcp_len: int = 20,
    ident: int = 7,
    ttl: int = 64,
    tos: int = 0,
    flags: int = IP_DF,
    offset: int = 0,
    options: bytes = b"",
    src: int = SRC,
    dst: int = DST,
) -> Ipv4Header:
    return Ipv4Header(
        ihl=ihl,
        tos=tos,
        total_length=ihl * 4 + tcp_len + payload_len,
        identification=ident,
        flags=flags,
        frag_offset=offset,
        ttl=ttl,
        protocol=6,
        checksum=0,
        src_addr=src,
        dst_addr=dst,
        options=options,
    )


def make_packet(
    seq: int,
    payload: bytes,
    *,
    ts: float = 0.0,
    syn: bool = False,
    ident: int = 7,
    ttl: int = 64,
    src: int = SRC,
    dst: int = DST,
    sport: int = SPORT,
    dport: int = DPORT,
) -> PacketRecord:
    """A checksummed non-fragment TCP packet with sensible defaults."""
    tcp = TcpHeader(
        src_port=sport,
        dst_port=dport,
        seq=seq,
        ack=0 if syn else 1,
        data_offset=5,
        flags=TCP_SYN if syn else TCP_ACK | (TCP_PSH if payload else 0),
        window=64240,
    )
    pkt = PacketRecord(
        ts=ts,
        ip=make_ip(len(payload), ident=ident, ttl=ttl, src=src, dst=dst),
        tcp=tcp,
        payload=payload,
    )
    return pkt.with_checksums()


def make_fragment(
    ident: int,
    offset_units: int,
    payload: bytes,
    *,
    mf: bool,
    ts: float = 0.0,
    ttl: int = 64,
) -> PacketRecord:
    """An IP fragment carrying raw bytes of a split TCP packet."""
    pkt = PacketRecord(
        ts=ts,
        ip=make_ip(
            len(payload),
            tcp_len=0,
            ident=ident,
            ttl=ttl,
            flags=IP_MF if mf else 0,
            offset=offset_units,
        ),
        tcp=None,
        payload=payload,
    )
    return pkt.with_checksums()


def handshake_trace(chunks: list[bytes], isn: int = 1000) -> FlowTrace:
    """SYN followed by one data packet per chunk, contiguous sequence space."""
    packets = [make_packet(isn, b"", syn=True, ts=0.0, ident=1)]
    seq = (isn + 1) % 2**32
    for i, chunk in enumerate(chunks):
        packets.append(
            make_packet(seq, chunk, ts=0.01 * (i + 1), ident=2 + i)
        )
        seq = (seq + len(chunk)) % 2**32
    return FlowTrace(
        key=(SRC, SPORT, DST, DPORT),
        packets=packets,
    )


def option_blocks(max_size: int = 40):
    """Arbitrary option bytes of a whole number of 32-bit words, malformed
    blocks included: headers keep option bytes as they are."""
    return st.binary(max_size=max_size).map(lambda b: b[: len(b) // 4 * 4])


@st.composite
def random_packets(draw):
    """A TCP packet with random header fields, options and payload."""
    options = draw(option_blocks())
    tcp = TcpHeader(
        src_port=draw(st.integers(0, 0xFFFF)),
        dst_port=draw(st.integers(0, 0xFFFF)),
        seq=draw(st.integers(0, 2**32 - 1)),
        ack=draw(st.integers(0, 2**32 - 1)),
        data_offset=5 + len(options) // 4,
        flags=draw(st.integers(0, 0xFFF)),
        window=draw(st.integers(0, 0xFFFF)),
        urgent=draw(st.integers(0, 0xFFFF)),
        options=options,
    )
    ihl = draw(st.integers(5, 15))
    payload = draw(st.binary(max_size=300))
    ip = Ipv4Header(
        ihl=ihl,
        tos=draw(st.integers(0, 255)),
        total_length=ihl * 4 + tcp.header_length + len(payload),
        identification=draw(st.integers(0, 0xFFFF)),
        flags=draw(st.integers(0, 7)) & ~IP_MF,
        frag_offset=0,
        ttl=draw(st.integers(0, 255)),
        protocol=6,
        checksum=0,
        src_addr=draw(st.integers(0, 2**32 - 1)),
        dst_addr=draw(st.integers(0, 2**32 - 1)),
        options=draw(st.binary(min_size=(ihl - 5) * 4, max_size=(ihl - 5) * 4)),
    )
    return PacketRecord(ts=0.0, ip=ip, tcp=tcp, payload=payload)


def lstm_cell_forward(
    x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray, p: LstmCellParams
) -> tuple[np.ndarray, np.ndarray]:
    """One LSTM cell step on vectors (or batches of vectors along axis 0):
    (h, c), the reference for the model's scan. Gate blocks are [i f g o];
    sigmoid(a) = 0.5 * tanh(0.5 * a) + 0.5, which saturates instead of
    overflowing."""
    h = p.hidden
    if x.shape[-1] != p.w_x.shape[1] or h_prev.shape[-1] != h or c_prev.shape[-1] != h:
        raise ShapeMismatchError(
            f"cell shapes: x {x.shape}, h {h_prev.shape}, c {c_prev.shape} "
            f"vs w_x {p.w_x.shape}, w_h {p.w_h.shape}"
        )
    gates = x @ p.w_x.T + h_prev @ p.w_h.T + p.b
    i, f, g, o = (gates[..., k * h : (k + 1) * h] for k in range(4))

    def sigmoid(a):
        return 0.5 * np.tanh(0.5 * a) + 0.5

    c = sigmoid(f) * c_prev + sigmoid(i) * np.tanh(g)
    return sigmoid(o) * np.tanh(c), c


def reverse_padded(arr: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Reverse the first lengths[b] steps of each sample (B, T, ...), leave
    the tail, through the row index the model's backward direction gathers
    its time-major input with."""
    rows = _time_major_reversal(lengths, arr.shape[1])
    time_major = np.ascontiguousarray(np.swapaxes(arr, 0, 1))
    return np.swapaxes(_gather_rows(time_major, rows), 0, 1)


def quadratic_convergence_probe(
    config: OptimizerConfig,
    dim: int = 10,
    seed: int = 0,
    tol: float = 1e-3,
    cap: int = 100_000,
) -> int:
    """Iterations until ||theta - theta*|| < tol on f = 0.5*||theta - theta*||^2.

    Returns cap when the tolerance was never reached.
    """
    rng = np.random.default_rng(seed)
    target = rng.standard_normal(dim)
    theta = np.zeros(dim)
    opt = Optimizer(config, dim)
    for it in range(1, cap + 1):
        g = theta - target
        theta = opt.step(theta, g)
        if float(np.linalg.norm(theta - target)) < tol:
            return it
    return cap


def matched_uni_hidden(bi_config: ModelConfig) -> int:
    """Hidden size whose unidirectional variant matches the bidirectional
    parameter count as closely as possible."""
    target = lstm_param_count(bi_config)
    best_h, best_gap = 1, None
    for h in range(1, 4 * bi_config.hidden + 1):
        uni = replace(bi_config, hidden=h, bidirectional=False)
        gap = abs(lstm_param_count(uni) - target)
        if best_gap is None or gap < best_gap:
            best_h, best_gap = h, gap
    return best_h
