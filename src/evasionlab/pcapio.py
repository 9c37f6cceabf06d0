"""Classic pcap (v2.4) reading and writing over an Ethernet link layer.

Both byte orders are accepted on read, detected from the magic number.
Writes always use the little-endian magic with microsecond timestamps.
Only IPv4/TCP packets become :class:`PacketRecord` entries; everything
else is skipped and counted.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import BinaryIO, Iterator

from .errors import BadMagicError, TruncatedFileError
from .packets import (
    IPPROTO_TCP,
    FlowKey,
    FlowTrace,
    Ipv4Header,
    PacketRecord,
    TcpHeader,
    flow_key_of,
)

PCAP_MAGIC_LE = 0xA1B2C3D4
PCAP_MAGIC_BE = 0xD4C3B2A1  # the LE magic seen through the wrong byte order

LINKTYPE_ETHERNET = 1
ETHERTYPE_IPV4 = 0x0800
ETH_HEADER_LEN = 14

# Locally administered unicast MACs; real capture hardware never matters here.
MAC_SRC = bytes.fromhex("020000000001")
MAC_DST = bytes.fromhex("020000000002")

GLOBAL_HEADER = struct.Struct("IHHiIII")  # magic, major, minor, tz, sigfigs, snaplen, network
RECORD_HEADER = struct.Struct("IIII")  # ts_sec, ts_usec, incl_len, orig_len


@dataclass
class CaptureStats:
    packets_total: int = 0
    packets_tcp: int = 0
    packets_skipped: int = 0
    flows: int = 0
    skipped_link: int = 0
    skipped_protocol: int = 0


@dataclass
class Capture:
    """Decoded contents of one pcap file."""

    records: list[PacketRecord]
    stats: CaptureStats = field(default_factory=CaptureStats)


def _read_exact(fh: BinaryIO, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise TruncatedFileError(f"expected {n} bytes for {what}, got {len(data)}")
    return data


def read_pcap(fh: BinaryIO) -> Capture:
    """Parse a classic pcap stream into IPv4/TCP packet records."""
    header = fh.read(GLOBAL_HEADER.size)
    if len(header) < GLOBAL_HEADER.size:
        raise TruncatedFileError(
            f"pcap global header needs {GLOBAL_HEADER.size} bytes, got {len(header)}"
        )
    magic_le = struct.unpack("<I", header[:4])[0]
    if magic_le == PCAP_MAGIC_LE:
        endian = "<"
    elif magic_le == PCAP_MAGIC_BE:
        endian = ">"
    else:
        raise BadMagicError(f"not a classic pcap file (magic 0x{magic_le:08x})")
    _magic, _major, _minor, _tz, _sig, _snaplen, network = struct.unpack(
        endian + GLOBAL_HEADER.format, header
    )
    if network != LINKTYPE_ETHERNET:
        raise BadMagicError(f"unsupported link type {network}, want Ethernet (1)")

    record_fmt = endian + RECORD_HEADER.format
    stats = CaptureStats()
    records: list[PacketRecord] = []
    while True:
        rec_header = fh.read(RECORD_HEADER.size)
        if not rec_header:
            break
        if len(rec_header) < RECORD_HEADER.size:
            raise TruncatedFileError("pcap record header truncated at end of file")
        ts_sec, ts_usec, incl_len, _orig_len = struct.unpack(record_fmt, rec_header)
        frame = _read_exact(fh, incl_len, "pcap record body")
        stats.packets_total += 1
        ts = ts_sec + ts_usec / 1_000_000
        pkt = _decode_frame(frame, ts, stats)
        if pkt is not None:
            records.append(pkt)
    return Capture(records=records, stats=stats)


def _decode_frame(frame: bytes, ts: float, stats: CaptureStats) -> PacketRecord | None:
    if len(frame) < ETH_HEADER_LEN:
        stats.packets_skipped += 1
        stats.skipped_link += 1
        return None
    ethertype = struct.unpack("!H", frame[12:14])[0]
    if ethertype != ETHERTYPE_IPV4:
        stats.packets_skipped += 1
        stats.skipped_link += 1
        return None
    body = frame[ETH_HEADER_LEN:]
    try:
        ip = Ipv4Header.decode(body)
    except ValueError:
        stats.packets_skipped += 1
        stats.skipped_protocol += 1
        return None
    if ip.protocol != IPPROTO_TCP:
        stats.packets_skipped += 1
        stats.skipped_protocol += 1
        return None
    try:
        pkt = PacketRecord.decode(body[: ip.total_length], ts=ts)
    except ValueError:
        stats.packets_skipped += 1
        stats.skipped_protocol += 1
        return None
    stats.packets_tcp += 1
    return pkt


def write_pcap(fh: BinaryIO, packets: list[PacketRecord], snaplen: int = 65535) -> None:
    """Write packets as a little-endian classic pcap with Ethernet framing."""
    fh.write(
        GLOBAL_HEADER.pack(PCAP_MAGIC_LE, 2, 4, 0, 0, snaplen, LINKTYPE_ETHERNET)
    )
    eth = MAC_DST + MAC_SRC + struct.pack("!H", ETHERTYPE_IPV4)
    for pkt in packets:
        frame = eth + pkt.encode()
        ts_sec = int(pkt.ts)
        ts_usec = int(round((pkt.ts - ts_sec) * 1_000_000))
        if ts_usec >= 1_000_000:
            ts_sec += 1
            ts_usec -= 1_000_000
        fh.write(RECORD_HEADER.pack(ts_sec, ts_usec, len(frame), len(frame)))
        fh.write(frame)


def group_flows(records: list[PacketRecord]) -> list[FlowTrace]:
    """Split packets into unidirectional flows keyed by (src, sport, dst, dport).

    Later fragments carry no ports, so they join the flow claimed by the
    offset-zero fragment with the same (src, dst, IP id); that first
    fragment still has the TCP ports at the start of its payload. An
    offset-zero fragment whose (src, dst, IP id) is already claimed
    overlaps the first one (its leading bytes may be junk), so it joins
    that flow too. Trailing fragments whose first piece never appeared are
    dropped.
    """
    flows: dict[FlowKey, list[PacketRecord]] = {}
    order: list[FlowKey] = []
    frag_owner: dict[tuple[int, int, int], FlowKey] = {}
    for pkt in records:
        key: FlowKey | None = None
        if pkt.tcp is not None:
            key = flow_key_of(pkt)
        else:
            frag = (pkt.ip.src_addr, pkt.ip.dst_addr, pkt.ip.identification)
            key = frag_owner.get(frag)
            if key is None and pkt.ip.frag_offset == 0 and len(pkt.payload) >= 4:
                # first fragment: TCP source/destination ports lead the payload
                sport, dport = struct.unpack("!HH", pkt.payload[:4])
                key = (pkt.ip.src_addr, sport, pkt.ip.dst_addr, dport)
                frag_owner[frag] = key
        if key is None:
            continue
        if key not in flows:
            flows[key] = []
            order.append(key)
        flows[key].append(pkt)
    return [FlowTrace(key=key, packets=flows[key]) for key in order]


def iter_flows_from_file(path: str) -> Iterator[FlowTrace]:
    with open(path, "rb") as fh:
        capture = read_pcap(fh)
    capture.stats.flows = 0
    for flow in group_flows(capture.records):
        capture.stats.flows += 1
        yield flow


def read_flows(path: str) -> tuple[list[FlowTrace], CaptureStats]:
    with open(path, "rb") as fh:
        capture = read_pcap(fh)
    flows = group_flows(capture.records)
    capture.stats.flows = len(flows)
    return flows, capture.stats


__all__ = [
    "Capture",
    "CaptureStats",
    "read_pcap",
    "write_pcap",
    "group_flows",
    "read_flows",
    "iter_flows_from_file",
    "PCAP_MAGIC_LE",
    "LINKTYPE_ETHERNET",
]
