"""Classic pcap (v2.4) reading and writing over an Ethernet link layer.

Both byte orders are accepted on read, detected from the magic number.
A capture is read whole, with one ``read()`` call that runs to the end of
the stream, however short the stream's reads; every frame is then decoded
from that one buffer at its offsets: record headers with one compiled
``Struct``, IP and TCP headers by :meth:`PacketRecord.decode` over the
frame's bounds. Only header options and payloads are copied out of it.
Writes always use the little-endian magic with microsecond timestamps.
Only IPv4/TCP packets become :class:`PacketRecord` entries; everything
else is skipped and counted.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import BinaryIO

from .errors import BadMagicError, TruncatedFileError
from .packets import (
    IPPROTO_TCP,
    FlowKey,
    FlowTrace,
    PacketRecord,
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
_ETHERTYPE = struct.Struct("!H")
_ETHERTYPE_HI, _ETHERTYPE_LO = _ETHERTYPE.pack(ETHERTYPE_IPV4)  # read byte by byte
_PORTS = struct.Struct("!HH")


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


def read_pcap(fh: BinaryIO) -> Capture:
    """Parse a classic pcap stream into IPv4/TCP packet records."""
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
    decode = PacketRecord.decode
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
        if (
            incl_len < ETH_HEADER_LEN
            or data[start + 12] != _ETHERTYPE_HI
            or data[start + 13] != _ETHERTYPE_LO
        ):
            skipped_link += 1
            continue
        try:
            pkt = decode(data, ts_sec + ts_usec / 1_000_000, start + ETH_HEADER_LEN, pos)
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


def write_pcap(fh: BinaryIO, packets: list[PacketRecord], snaplen: int = 65535) -> None:
    """Write packets as a little-endian classic pcap with Ethernet framing."""
    fh.write(
        GLOBAL_HEADER.pack(PCAP_MAGIC_LE, 2, 4, 0, 0, snaplen, LINKTYPE_ETHERNET)
    )
    eth = MAC_DST + MAC_SRC + _ETHERTYPE.pack(ETHERTYPE_IPV4)
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
                sport, dport = _PORTS.unpack_from(pkt.payload)
                key = frag_owner[frag] = (ip.src_addr, sport, ip.dst_addr, dport)
        flow = flows.get(key)
        if flow is None:
            flows[key] = [pkt]
        else:
            flow.append(pkt)
    return [FlowTrace(key=key, packets=packets) for key, packets in flows.items()]


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
    "PCAP_MAGIC_LE",
    "LINKTYPE_ETHERNET",
]
