"""Hand-rolled builders and hypothesis strategies shared across test modules.

Everything here constructs packets the long way, without going through the
synthesis code, so tests keep an independent path to valid on-the-wire
structures.
"""

from hypothesis import strategies as st

from evasionlab.packets import (
    FlowTrace,
    Ipv4Header,
    PacketRecord,
    TcpHeader,
    TcpOption,
    pad_tcp_options,
    str_to_addr,
)

SRC = str_to_addr("10.0.0.1")
DST = str_to_addr("192.168.0.9")
SPORT = 40000
DPORT = 80


def make_ip(
    payload_len: int,
    *,
    ihl: int = 5,
    tcp_len: int = 20,
    ident: int = 7,
    ttl: int = 64,
    tos: int = 0,
    df: bool = True,
    mf: bool = False,
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
        flag_df=df,
        flag_mf=mf,
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
        flag_syn=syn,
        flag_psh=not syn and bool(payload),
        flag_ack=not syn,
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
            df=False,
            mf=mf,
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


TCP_OPTIONS = st.lists(
    st.one_of(
        st.just(TcpOption(1)),
        st.binary(min_size=2, max_size=2).map(lambda b: TcpOption(2, b)),
        st.binary(min_size=1, max_size=1).map(lambda b: TcpOption(3, b)),
        st.binary(min_size=8, max_size=8).map(lambda b: TcpOption(8, b)),
        st.tuples(st.integers(9, 255), st.binary(max_size=6)).map(lambda t: TcpOption(*t)),
    ),
    max_size=5,
).map(pad_tcp_options).filter(lambda opts: sum(len(o.encode()) for o in opts) <= 40)


@st.composite
def random_packets(draw):
    """A TCP packet with random header fields, options and payload."""
    options = draw(TCP_OPTIONS)
    tcp = TcpHeader(
        src_port=draw(st.integers(0, 0xFFFF)),
        dst_port=draw(st.integers(0, 0xFFFF)),
        seq=draw(st.integers(0, 2**32 - 1)),
        ack=draw(st.integers(0, 2**32 - 1)),
        data_offset=5 + sum(len(o.encode()) for o in options) // 4,
        flag_syn=draw(st.booleans()),
        flag_ack=draw(st.booleans()),
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
        flag_df=draw(st.booleans()),
        flag_mf=False,
        frag_offset=0,
        ttl=draw(st.integers(0, 255)),
        protocol=6,
        checksum=0,
        src_addr=draw(st.integers(0, 2**32 - 1)),
        dst_addr=draw(st.integers(0, 2**32 - 1)),
        options=draw(st.binary(min_size=(ihl - 5) * 4, max_size=(ihl - 5) * 4)),
    )
    return PacketRecord(ts=0.0, ip=ip, tcp=tcp, payload=payload)
