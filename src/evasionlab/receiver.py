"""A strict normalizing receiver used to check transform correctness.

It models the validation path of an end host guarded by a normalizer:

1. drop packets whose IPv4 header checksum is wrong,
2. drop packets whose TTL is at or below the configured floor
   (a normalizer knows such packets expire before the protected host),
3. reassemble IP fragments per (src, dst, id); on overlap the bytes
   that arrived first win,
4. drop reassembled segments whose TCP checksum is wrong,
5. reassemble the TCP byte stream relative to the first SYN's ISN,
   again first arrival wins per byte,
6. require the stream to be contiguous from sequence offset zero.

Every transform in :mod:`evasionlab.synth` must leave a flow that this
receiver reduces to the original application bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IncompleteStreamError
from .packets import IP_MF, TCP_SYN, FlowTrace, Ipv4Header, PacketRecord, TcpHeader


@dataclass
class ReceiverReport:
    """What happened on the way to the reassembled stream."""

    delivered: bytes
    dropped_ip_checksum: int = 0
    dropped_ttl: int = 0
    dropped_tcp_checksum: int = 0
    fragments_reassembled: int = 0
    segments_accepted: int = 0


def _claim(buf: bytearray, have: bytearray, start: int, data: bytes) -> None:
    """Write data at start into buf, first arrival wins per byte: a byte
    already claimed (have[pos] set) keeps its value. Grows both to fit."""
    end = start + len(data)
    if end > len(buf):
        buf.extend(b"\x00" * (end - len(buf)))
        have.extend(b"\x00" * (end - len(have)))
    if have.find(1, start, end) == -1:  # nothing claimed yet: take the slice
        buf[start:end] = data
        have[start:end] = b"\x01" * len(data)
        return
    for i, byte in enumerate(data):
        pos = start + i
        if not have[pos]:
            buf[pos] = byte
            have[pos] = 1


def _reassemble_fragments(
    fragments: list[PacketRecord],
) -> PacketRecord | None:
    """First-arrival-wins reassembly of one fragment group.

    Returns a whole packet with the TCP header decoded, or None when the
    group is incomplete.
    """
    fragments = sorted(
        enumerate(fragments), key=lambda pair: (pair[1].ip.frag_offset, pair[0])
    )
    buf = bytearray()
    have = bytearray()  # 1 where a byte has already been claimed
    total_len: int | None = None
    for _, frag in fragments:
        start = frag.ip.frag_offset * 8
        data = frag.ip_payload()
        _claim(buf, have, start, data)
        if not frag.ip.flags & IP_MF:
            total_len = max(total_len or 0, start + len(data))
    if total_len is None or len(buf) < total_len or have.find(0, 0, total_len) != -1:
        return None
    payload = bytes(buf[:total_len])

    first = fragments[0][1]  # lowest offset; the first arrival on a tie
    head = first.ip
    # the first fragment's header with MF cleared, offset 0 and the whole length
    ip = Ipv4Header(
        head.ihl, head.tos, head.header_length + total_len, head.identification,
        head.flags & ~IP_MF, 0, head.ttl, head.protocol, head.checksum,
        head.src_addr, head.dst_addr, head.options,
    )
    try:
        tcp = TcpHeader.decode(payload)
    except ValueError:
        return None
    return PacketRecord(
        ts=first.ts, ip=ip, tcp=tcp, payload=payload[tcp.header_length :]
    )


def normalize_receive(trace: FlowTrace, ttl_floor: int = 1) -> ReceiverReport:
    """Reduce a flow to the byte stream a normalized end host would see.

    Raises :class:`IncompleteStreamError` when fragments cannot be
    completed or the TCP stream has a hole.
    """
    report = ReceiverReport(delivered=b"")

    # Phase 1: per-packet header validation.
    survivors: list[PacketRecord] = []
    for pkt in trace.packets:
        if not pkt.ip.checksum_valid():
            report.dropped_ip_checksum += 1
            continue
        if pkt.ip.ttl <= ttl_floor:
            report.dropped_ttl += 1
            continue
        survivors.append(pkt)

    # Phase 2: IP reassembly.
    whole: list[PacketRecord] = []
    frag_groups: dict[tuple[int, int, int], list[PacketRecord]] = {}
    frag_order: list[tuple[int, int, int]] = []
    for pkt in survivors:
        if pkt.is_fragment:
            gkey = (pkt.ip.src_addr, pkt.ip.dst_addr, pkt.ip.identification)
            if gkey not in frag_groups:
                frag_groups[gkey] = []
                frag_order.append(gkey)
            frag_groups[gkey].append(pkt)
        else:
            whole.append(pkt)
    for gkey in frag_order:
        packet = _reassemble_fragments(frag_groups[gkey])
        if packet is None:
            raise IncompleteStreamError(
                f"fragment group id={gkey[2]} cannot be completed"
            )
        report.fragments_reassembled += 1
        whole.append(packet)
    whole.sort(key=lambda p: p.ts)

    # Phase 3: TCP checksum validation on whole segments.
    segments: list[PacketRecord] = []
    for pkt in whole:
        if pkt.tcp is None:
            continue
        if not pkt.tcp_checksum_valid():
            report.dropped_tcp_checksum += 1
            continue
        segments.append(pkt)

    # Phase 4: byte-stream reassembly against the ISN.
    isn: int | None = None
    for pkt in segments:
        if pkt.tcp is not None and pkt.tcp.flags & TCP_SYN:
            isn = pkt.tcp.seq
            break
    if isn is None:
        raise IncompleteStreamError("no SYN seen; stream origin unknown")

    stream = bytearray()
    have = bytearray()
    for pkt in segments:
        tcp = pkt.tcp
        assert tcp is not None
        if not pkt.payload:
            report.segments_accepted += 1
            continue
        # the SYN occupies one sequence number, so data starts at ISN+1
        start = (tcp.seq - (isn + 1)) % (1 << 32)
        if tcp.flags & TCP_SYN:
            start = 0  # data on the SYN itself sits right after the ISN
        if start > (1 << 31):
            # segment entirely before the ISN: stale chaff, ignore
            report.segments_accepted += 1
            continue
        _claim(stream, have, start, pkt.payload)
        report.segments_accepted += 1

    first_gap = have.find(0)
    if first_gap != -1:
        raise IncompleteStreamError(
            f"TCP stream has a hole at offset {first_gap} of {len(stream)}"
        )
    report.delivered = bytes(stream)
    return report


__all__ = ["ReceiverReport", "normalize_receive"]
