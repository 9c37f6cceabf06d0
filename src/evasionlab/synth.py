"""Seeded synthesis of clean TCP flows and the eight atomic evasion transforms.

Transform semantics follow the fragroute family of tricks: chaff packets are
made discardable by a bad checksum or an expiring TTL, fragmentation and
segmentation carve the same bytes into smaller carriers, option insertion
pads headers without touching the stream. Every transform must satisfy one
contract, checked by :func:`evasionlab.receiver.normalize_receive`: the
normalized receiver sees exactly the clean flow's bytes.

A transform never changes a packet it is given: each packet it rewrites
is built anew, one positional constructor call per header (``_ip`` and
``_tcp`` read the unchanged fields from the source header) and one for
the record. Each new header gets its checksum written once, summed
from its own fields and XORed with a mask where a chaff needs a wrong one;
a TCP header none of whose fields change and whose stored checksum is
already right is shared with the source packet.

All randomness flows from ``random.Random`` seeded per call, so identical
inputs give byte-identical outputs.
"""

from __future__ import annotations

import enum
import random
import struct
from dataclasses import dataclass, replace

from .errors import EmptyPayloadError
from .packets import (
    IP_DF,
    IP_MF,
    TCP_ACK,
    TCP_OPT_MSS,
    TCP_OPT_NOP,
    TCP_OPT_TIMESTAMP,
    TCP_PSH,
    TCP_SYN,
    FlowTrace,
    Ipv4Header,
    PacketRecord,
    TcpHeader,
    _zeroed_tcp_checksum,
)


class EvasionLabel(enum.IntEnum):
    """The eight atomic evasion classes, with stable integer codes."""

    IP_OPT = 0
    IP_FRAG = 1
    TCP_CHAFF = 2
    IP_TOS = 3
    TCP_SEG = 4
    IP_TTL = 5
    IP_CHAFF = 6
    TCP_OPT = 7

    @property
    def tag(self) -> str:
        return self.name.lower()

    @classmethod
    def from_tag(cls, tag: str) -> "EvasionLabel":
        try:
            return cls[tag.upper()]
        except KeyError:
            raise ValueError(
                f"unknown evasion tag {tag!r}; choose from "
                f"{', '.join(m.tag for m in cls)}"
            ) from None


# Code used for untransformed flows when the optional clean class is enabled.
# Deliberately not an EvasionLabel member: the enum is exactly the 8 evasions.
CLEAN_LABEL = 8


@dataclass(frozen=True)
class SynthParams:
    """Knobs shared by all transforms. Defaults keep every transform visible
    in at least one feature dimension of every packet window."""

    seed: int = 0
    frag_units: int = 1  # fragment size in 8-byte units
    seg_bytes: int = 8  # TCP segment payload size
    chaff_rate: float = 1.0  # chaff packets per real packet
    ttl_floor: int = 1  # TTL at or below this is treated as expired
    tos_values: tuple[int, ...] = (16, 24, 17, 8)
    overlap: bool = False

    def __post_init__(self) -> None:
        if self.frag_units < 1:
            raise ValueError("frag_units must be >= 1")
        if self.seg_bytes < 1:
            raise ValueError("seg_bytes must be >= 1")
        if not 0.0 < self.chaff_rate <= 1.0:
            raise ValueError("chaff_rate must be in (0, 1]")
        if not 0 <= self.ttl_floor <= 255:
            raise ValueError("ttl_floor must be in [0, 255]")
        if not self.tos_values:
            raise ValueError("tos_values must be non-empty")
        if not all(0 <= tos <= 255 for tos in self.tos_values):
            raise ValueError(f"tos_values {self.tos_values} must each be in [0, 255]")


def generate_clean_flow(
    seed: int,
    n_packets: int,
    payload_len_range: tuple[int, int] = (16, 64),
) -> FlowTrace:
    """A syntactically valid one-direction flow: SYN then data packets.

    TTL 64, TOS 0, DF set, no options, valid checksums; sequence numbers
    advance by payload length; timestamps step by 10 ms. Each header is
    built once and gets its checksum written before it is shared.
    """
    if n_packets < 1:
        raise ValueError("n_packets must be >= 1")
    lo, hi = payload_len_range
    if not 1 <= lo <= hi:
        raise ValueError(f"bad payload_len_range {payload_len_range}")

    rng = random.Random(seed)
    src = 0x0A000000 | rng.randrange(1, 1 << 24)  # 10.0.0.0/8
    dst = 0xC0A80000 | rng.randrange(1, 1 << 16)  # 192.168.0.0/16
    sport = rng.randrange(1024, 65536)
    dport = rng.choice((22, 25, 80, 443, 8080))
    isn = rng.randrange(0, 1 << 32)
    ack_val = rng.randrange(0, 1 << 32)
    ip_id = rng.randrange(0, 1 << 16)
    ts = 1_600_000_000.0 + rng.randrange(0, 1_000_000) / 1000.0

    def build(seq: int, payload: bytes, idx: int, syn: bool) -> PacketRecord:
        ip = Ipv4Header(
            5, 0, 40 + len(payload), (ip_id + idx) & 0xFFFF, IP_DF, 0, 64, 6, 0, src, dst
        )._write_checksum()
        tcp = TcpHeader(
            sport, dport, seq, 0 if syn else ack_val, 5,
            TCP_SYN if syn else TCP_PSH | TCP_ACK, 64240,
        )._write_checksum(ip, payload)
        return PacketRecord(ts + 0.01 * idx, ip, tcp, payload)

    packets = [build(isn, b"", 0, syn=True)]
    seq = (isn + 1) & 0xFFFFFFFF
    for idx in range(1, n_packets):
        length = rng.randint(lo, hi)
        payload = rng.randbytes(length)
        packets.append(build(seq, payload, idx, syn=False))
        seq = (seq + length) & 0xFFFFFFFF
    key = (src, sport, dst, dport)
    return FlowTrace(key=key, packets=packets)


# ---------------------------------------------------------------------------
# individual transforms; each takes (trace, params, rng) and returns packets
# ---------------------------------------------------------------------------


def _require_payload(trace: FlowTrace, what: str) -> None:
    if not any(p.payload for p in trace.packets if p.tcp is not None):
        raise EmptyPayloadError(f"{what} needs at least one payload-bearing packet")


def _junk(rng: random.Random, n: int) -> bytes:
    return rng.randbytes(n)


def _ip(
    ip: Ipv4Header,
    total_length: int,
    mask: int = 0,
    *,
    tos: int | None = None,
    ttl: int | None = None,
    flags: int | None = None,
    frag_offset: int | None = None,
    ihl: int | None = None,
    options: bytes | None = None,
) -> Ipv4Header:
    """A new header: ``ip`` with ``total_length`` and the fields given,
    built by one constructor call, its checksum written XOR ``mask``."""
    return Ipv4Header(
        ip.ihl if ihl is None else ihl,
        ip.tos if tos is None else tos,
        total_length,
        ip.identification,
        ip.flags if flags is None else flags,
        ip.frag_offset if frag_offset is None else frag_offset,
        ip.ttl if ttl is None else ttl,
        ip.protocol,
        0,
        ip.src_addr,
        ip.dst_addr,
        ip.options if options is None else options,
    )._write_checksum(mask)


def _tcp(
    tcp: TcpHeader,
    ip: Ipv4Header,
    payload: bytes,
    mask: int = 0,
    *,
    seq: int | None = None,
    data_offset: int | None = None,
    options: bytes | None = None,
) -> TcpHeader:
    """The TCP header of ``payload`` under ``ip``: ``tcp`` with the fields
    given and its checksum written XOR ``mask``.

    When no field changes and ``tcp`` already stores that checksum, ``tcp``
    itself is returned; otherwise one constructor call builds the header.
    """
    if seq is None and data_offset is None and options is None:
        checksum = _zeroed_tcp_checksum(ip, tcp, payload) ^ mask
        if checksum == tcp.checksum:
            return tcp
        return TcpHeader(
            tcp.src_port, tcp.dst_port, tcp.seq, tcp.ack, tcp.data_offset,
            tcp.flags, tcp.window, checksum, tcp.urgent, tcp.options,
        )
    return TcpHeader(
        tcp.src_port,
        tcp.dst_port,
        tcp.seq if seq is None else seq,
        tcp.ack,
        tcp.data_offset if data_offset is None else data_offset,
        tcp.flags,
        tcp.window,
        0,
        tcp.urgent,
        tcp.options if options is None else options,
    )._write_checksum(ip, payload, mask)


def _ip_chaff(trace: FlowTrace, params: SynthParams, rng: random.Random):
    """After each real packet, a duplicate with random payload and a
    deliberately broken IP header checksum."""
    out: list[PacketRecord] = []
    for pkt in trace.packets:
        out.append(pkt)
        if rng.random() >= params.chaff_rate:
            continue
        junk = _junk(rng, rng.randint(8, 64))
        tcp = pkt.tcp
        headers_length = pkt.ip.header_length + (0 if tcp is None else tcp.header_length)
        ip = _ip(pkt.ip, headers_length + len(junk), 0xFFFF)
        tcp = None if tcp is None else _tcp(tcp, ip, junk)
        out.append(PacketRecord(pkt.ts + 1e-5, ip, tcp, junk))
    return out


def _ip_ttl(trace: FlowTrace, params: SynthParams, rng: random.Random):
    """After each real packet, a chaff copy that expires at the TTL floor.

    All checksums on the chaff are valid; only the TTL gives it away.
    """
    out: list[PacketRecord] = []
    for pkt in trace.packets:
        out.append(pkt)
        if rng.random() >= params.chaff_rate:
            continue
        junk = _junk(rng, len(pkt.payload))
        ip = _ip(pkt.ip, pkt.ip.total_length, ttl=params.ttl_floor)
        tcp = None if pkt.tcp is None else _tcp(pkt.tcp, ip, junk)
        out.append(PacketRecord(pkt.ts + 1e-5, ip, tcp, junk))
    return out


def _tcp_chaff(trace: FlowTrace, params: SynthParams, rng: random.Random):
    """After each real segment, a same-seq segment with junk payload and an
    invalid TCP checksum (IP checksum stays valid)."""
    out: list[PacketRecord] = []
    for pkt in trace.packets:
        out.append(pkt)
        tcp = pkt.tcp
        if tcp is None or rng.random() >= params.chaff_rate:
            continue
        junk = _junk(rng, len(pkt.payload) or 8)
        ip = _ip(pkt.ip, pkt.ip.header_length + tcp.header_length + len(junk))
        out.append(PacketRecord(pkt.ts + 1e-5, ip, _tcp(tcp, ip, junk, 0xFFFF), junk))
    return out


def _ip_frag(trace: FlowTrace, params: SynthParams, rng: random.Random):
    """Carve each data packet's IP payload into frag_units x 8-byte fragments.

    With overlap on, every fragment after the first starts 8 bytes early and
    fills the overlapped region with junk; first-arrival reassembly keeps the
    earlier fragment's real bytes.
    """
    _require_payload(trace, "ip_frag")
    chunk_size = params.frag_units * 8
    out: list[PacketRecord] = []
    for pkt in trace.packets:
        if pkt.tcp is None or not pkt.payload:
            out.append(pkt)
            continue
        raw = pkt.ip_payload()
        chunks = [raw[i : i + chunk_size] for i in range(0, len(raw), chunk_size)]
        if len(chunks) == 1:
            out.append(pkt)
            continue
        header_length = pkt.ip.header_length
        for j, chunk in enumerate(chunks):
            offset_units = j * params.frag_units
            data = chunk
            if params.overlap and j > 0:
                offset_units -= 1
                data = _junk(rng, 8) + chunk
            ip = _ip(pkt.ip, header_length + len(data),
                     flags=IP_MF if j < len(chunks) - 1 else 0, frag_offset=offset_units)
            out.append(PacketRecord(pkt.ts + j * 1e-5, ip, None, data))
    return out


def _ip_opt(trace: FlowTrace, params: SynthParams, rng: random.Random):
    """Grow every IP header by a NOP plus a record-route option (kind 7).

    Raises ``ValueError`` when a header has fewer than 8 of its 40 option
    bytes free.
    """
    opts = bytes([1, 7, 7, 4, 0, 0, 0, 0])  # NOP, then RR: kind 7, len 7, ptr 4
    if any(pkt.ip.ihl > 13 for pkt in trace.packets):
        raise ValueError("ip_opt needs 8 free IP option bytes; a header has fewer")
    out: list[PacketRecord] = []
    for pkt in trace.packets:
        ip = pkt.ip
        ip = _ip(ip, ip.total_length + len(opts), ihl=ip.ihl + 2, options=ip.options + opts)
        tcp = None if pkt.tcp is None else _tcp(pkt.tcp, ip, pkt.payload)
        out.append(PacketRecord(pkt.ts, ip, tcp, pkt.payload))
    return out


def _ip_tos(trace: FlowTrace, params: SynthParams, rng: random.Random):
    """Rewrite the TOS byte, cycling through the configured values."""
    values = params.tos_values
    out: list[PacketRecord] = []
    for j, pkt in enumerate(trace.packets):
        ip = _ip(pkt.ip, pkt.ip.total_length, tos=values[j % len(values)])
        tcp = None if pkt.tcp is None else _tcp(pkt.tcp, ip, pkt.payload)
        out.append(PacketRecord(pkt.ts, ip, tcp, pkt.payload))
    return out


def _tcp_opt(trace: FlowTrace, params: SynthParams, rng: random.Random):
    """Set TCP options: MSS on the SYN, NOP+NOP+timestamp on data segments.

    The new options replace any the segment already carries.
    """
    tsval = rng.randrange(1, 1 << 31)
    out: list[PacketRecord] = []
    for j, pkt in enumerate(trace.packets):
        if pkt.tcp is None:
            out.append(pkt)
            continue
        if pkt.tcp.flags & TCP_SYN:
            options = struct.pack("!BBH", TCP_OPT_MSS, 4, 1460)
        elif pkt.payload:
            options = struct.pack(
                "!BBBBII", TCP_OPT_NOP, TCP_OPT_NOP, TCP_OPT_TIMESTAMP, 10,
                (tsval + j) & 0xFFFFFFFF, 0,
            )
        else:
            out.append(pkt)
            continue
        ip = _ip(pkt.ip, pkt.ip.total_length + len(options) - len(pkt.tcp.options))
        tcp = _tcp(pkt.tcp, ip, pkt.payload, data_offset=5 + len(options) // 4,
                   options=options)
        out.append(PacketRecord(pkt.ts, ip, tcp, pkt.payload))
    return out


def _tcp_seg(trace: FlowTrace, params: SynthParams, rng: random.Random):
    """Split each segment's payload into seg_bytes pieces with advancing seq.

    With overlap on, each piece after the first is preceded by a junk
    "resend" of the previous seg_bytes; its checksums are valid, but the
    receiver has already claimed those stream bytes.
    """
    _require_payload(trace, "tcp_seg")
    out: list[PacketRecord] = []
    for pkt in trace.packets:
        if pkt.tcp is None or len(pkt.payload) <= params.seg_bytes:
            out.append(pkt)
            continue
        chunks = [
            pkt.payload[i : i + params.seg_bytes]
            for i in range(0, len(pkt.payload), params.seg_bytes)
        ]
        headers_length = pkt.ip.header_length + pkt.tcp.header_length
        pieces = []  # (seq, payload) in emission order
        for j, chunk in enumerate(chunks):
            seq_j = pkt.tcp.seq + j * params.seg_bytes
            if params.overlap and j > 0:
                pieces.append((seq_j - params.seg_bytes, _junk(rng, params.seg_bytes)))
            pieces.append((seq_j, chunk))
        for emitted, (seq, payload) in enumerate(pieces):
            ip = _ip(pkt.ip, headers_length + len(payload))
            tcp = _tcp(pkt.tcp, ip, payload, seq=seq & 0xFFFFFFFF)
            out.append(PacketRecord(pkt.ts + emitted * 1e-4, ip, tcp, payload))
    return out


_TRANSFORMS = {
    EvasionLabel.IP_OPT: _ip_opt,
    EvasionLabel.IP_FRAG: _ip_frag,
    EvasionLabel.TCP_CHAFF: _tcp_chaff,
    EvasionLabel.IP_TOS: _ip_tos,
    EvasionLabel.TCP_SEG: _tcp_seg,
    EvasionLabel.IP_TTL: _ip_ttl,
    EvasionLabel.IP_CHAFF: _ip_chaff,
    EvasionLabel.TCP_OPT: _tcp_opt,
}


def apply_evasion(
    trace: FlowTrace, label: EvasionLabel, params: SynthParams
) -> FlowTrace:
    """Apply one transform to a clean trace. Deterministic given params.seed."""
    rng = random.Random(params.seed)
    packets = _TRANSFORMS[EvasionLabel(label)](trace, params, rng)
    return FlowTrace(key=trace.key, packets=packets)


# ---------------------------------------------------------------------------
# corpus construction
# ---------------------------------------------------------------------------

# Salts decorrelate the three RNG streams touching one trace.
_SHAPE_SALT = 0x5348_4150
_SYNTH_SALT = 0x9E37_79B9


def build_labeled_corpus(
    n_flows_per_class: int,
    params: SynthParams,
    seed: int,
    n_packets_range: tuple[int, int] = (4, 8),
    payload_len_range: tuple[int, int] = (16, 64),
    include_clean: bool = False,
) -> list[tuple[FlowTrace, int]]:
    """A balanced labeled corpus, label-major order, reproducible from seed.

    Per-trace seeds derive as seed XOR global index, so each trace depends
    only on its own index.
    """
    if n_flows_per_class < 1:
        raise ValueError("n_flows_per_class must be >= 1")
    labels: list[int] = [int(m) for m in EvasionLabel]
    if include_clean:
        labels.append(CLEAN_LABEL)
    corpus = []
    for g in range(len(labels) * n_flows_per_class):
        label = labels[g // n_flows_per_class]
        trace_seed = seed ^ g
        n_packets = random.Random(trace_seed ^ _SHAPE_SALT).randint(*n_packets_range)
        trace = generate_clean_flow(trace_seed, n_packets, payload_len_range)
        if label != CLEAN_LABEL:
            synth_params = replace(params, seed=trace_seed ^ _SYNTH_SALT)
            trace = apply_evasion(trace, EvasionLabel(label), synth_params)
        corpus.append((trace, label))
    return corpus


__all__ = [
    "EvasionLabel",
    "CLEAN_LABEL",
    "SynthParams",
    "generate_clean_flow",
    "apply_evasion",
    "build_labeled_corpus",
]
