"""Batch frame synthesis: render whole traces without per-packet packing.

The trace generators (:mod:`repro.datasets.devices`,
:mod:`repro.datasets.attacks`) record *frame specs* into a
:class:`FrameEmitter` instead of serialising each frame on the spot.
Stateful models (TCP sessions, request/response exchanges) emit one spec
per call; high-volume stateless models (floods, the camera stream) hand
whole column arrays to the ``*_batch`` methods.  When a generator
finishes, the emitter renders all frames of one template (Ethernet/IPv4/
TCP, .../UDP, Ethernet/IPv6/UDP, ICMP echo, ARP) as a single
``(n, header_bytes)`` uint8 matrix via compiled
:class:`~repro.net.packplan.PackPlan` s, with vectorised ones-complement
checksums, then stitches headers and payloads back together in emission
order.

Two render backends share one spec format:

* **fast** (default) — the vectorised matrix path;
* **scalar** — per-row calls into the reference builders in
  :mod:`repro.net.protocols.inet` (batch columns are expanded back to
  per-row values first).

The :func:`fastpath` context manager forces the scalar backend; the
differential test generates full traces both ways and asserts
byte-identical packets, timestamps and labels.
"""

from __future__ import annotations

import contextlib
from functools import lru_cache
from typing import Iterator, List, Sequence, Tuple, Union

import numpy as np

from repro.net.bytesutil import (
    bytes_to_ipv4,
    bytes_to_mac,
    fold_checksum,
    ipv4_to_bytes,
    mac_to_bytes,
    matrix_word_sums,
)
from repro.net.packet import Label, Packet
from repro.net.packplan import plan_for
from repro.net.protocols import inet

__all__ = [
    "FrameEmitter",
    "fastpath",
    "fastpath_enabled",
    "poisson_times",
    "arrival_chain",
    "uniform_chain",
    "random_mac_matrix",
    "spoofed_ip_matrix",
    "random_payloads",
    "stamped_payloads",
]

_FASTPATH = True


def fastpath_enabled() -> bool:
    """True when emitters render through the vectorised batch path."""
    return _FASTPATH


@contextlib.contextmanager
def fastpath(enabled: bool) -> Iterator[None]:
    """Temporarily force the fast (True) or scalar (False) backend."""
    global _FASTPATH
    previous = _FASTPATH
    _FASTPATH = enabled
    try:
        yield
    finally:
        _FASTPATH = previous


# -- vectorised draw helpers (shared by the trace generators) ------------------


def _gap_chain(draw_gaps, first: float, end: float, mean: float) -> np.ndarray:
    """Cumulative-gap arrival times ``first, first+g1, ...`` below ``end``.

    ``draw_gaps(size)`` returns i.i.d. positive gaps with mean ``mean``.
    Draws happen in chunks sized from the expected count, so the stream
    differs from a draw-per-packet loop but stays fully deterministic
    for a given generator state.
    """
    if first >= end:
        return np.empty(0, dtype=np.float64)
    chunks = [np.zeros(1, dtype=np.float64)]
    offset = 0.0
    budget = end - first
    size = max(16, int(budget / mean * 1.25) + 16)
    while True:
        gaps = np.cumsum(draw_gaps(size)) + offset
        chunks.append(gaps)
        offset = float(gaps[-1])
        if offset >= budget:
            break
        size = max(16, size // 4)
    arrivals = np.concatenate(chunks)
    return first + arrivals[arrivals < budget]


def arrival_chain(
    rng: np.random.Generator, first: float, end: float, scale: float
) -> np.ndarray:
    """Exponential-gap arrivals (mean gap ``scale``) clipped to ``end``."""
    return _gap_chain(
        lambda size: rng.exponential(scale, size=size), first, end, scale
    )


def uniform_chain(
    rng: np.random.Generator, first: float, end: float, low: float, high: float
) -> np.ndarray:
    """Uniform-gap arrivals (gaps in ``[low, high)``) clipped to ``end``."""
    return _gap_chain(
        lambda size: rng.uniform(low, high, size=size),
        first,
        end,
        (low + high) / 2,
    )


def poisson_times(
    rng: np.random.Generator, start: float, duration: float, rate: float
) -> np.ndarray:
    """Poisson arrivals at ``rate``/s inside ``(start, start+duration)``."""
    scale = 1.0 / rate
    first = start + float(rng.exponential(scale))
    return arrival_chain(rng, first, start + duration, scale)


def random_mac_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` locally-administered ``06:xx:...`` MACs as an ``(n, 6)`` matrix."""
    macs = np.empty((n, 6), dtype=np.uint8)
    macs[:, 0] = 0x06
    macs[:, 1:] = rng.integers(0, 256, size=(n, 5), dtype=np.uint8)
    return macs


def spoofed_ip_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` routable-looking IPv4 sources as an ``(n, 4)`` matrix."""
    ips = np.empty((n, 4), dtype=np.uint8)
    ips[:, 0] = rng.integers(11, 223, size=n, dtype=np.uint8)
    ips[:, 1] = rng.integers(0, 256, size=n, dtype=np.uint8)
    ips[:, 2] = rng.integers(0, 256, size=n, dtype=np.uint8)
    ips[:, 3] = rng.integers(1, 255, size=n, dtype=np.uint8)
    return ips


def random_payloads(
    rng: np.random.Generator, n: int, low: int, high: int
) -> List[bytes]:
    """``n`` random byte payloads with sizes uniform in ``[low, high)``."""
    sizes = rng.integers(low, high, size=n)
    blob = rng.integers(0, 256, size=int(sizes.sum()), dtype=np.uint8).tobytes()
    ends = np.cumsum(sizes)
    starts = ends - sizes
    return [blob[s:e] for s, e in zip(starts.tolist(), ends.tolist())]


def stamped_payloads(
    template: bytes, fields: "dict[int, np.ndarray]"
) -> List[bytes]:
    """``n`` copies of ``template`` with per-row fields stamped in.

    ``fields`` maps a byte offset to either an ``(n,)`` integer array
    (written as a big-endian 16-bit word) or an ``(n, k)`` uint8 matrix
    (written verbatim).  Lets generators render per-packet application
    payloads (CoAP ids/tokens, MQTT client ids, DNS txids) without
    calling a Python builder per packet.
    """
    arrays = list(fields.values())
    n = arrays[0].shape[0]
    width = len(template)
    matrix = np.broadcast_to(
        np.frombuffer(template, dtype=np.uint8), (n, width)
    ).copy()
    for offset, values in fields.items():
        if values.ndim == 1:
            matrix[:, offset] = values >> 8
            matrix[:, offset + 1] = values & 0xFF
        else:
            matrix[:, offset : offset + values.shape[1]] = values
    blob = matrix.tobytes()
    return [blob[i * width : (i + 1) * width] for i in range(n)]


# -- cached address parsing ----------------------------------------------------

_mac_bytes = lru_cache(maxsize=65536)(mac_to_bytes)
_ip4_bytes = lru_cache(maxsize=65536)(ipv4_to_bytes)
_ip6_bytes = lru_cache(maxsize=65536)(inet.ipv6_to_bytes)

#: Address column: one string (broadcast), one string per row, or an
#: ``(n, width)`` uint8 matrix.
AddressColumn = Union[str, Sequence[str], np.ndarray]
IntColumn = Union[int, Sequence[int], np.ndarray]
PayloadColumn = Union[bytes, Sequence[bytes]]


def _addr_col(col: AddressColumn, parse, width: int, n: int) -> np.ndarray:
    if isinstance(col, np.ndarray):
        if col.shape != (n, width):
            raise ValueError(
                f"address matrix must be {(n, width)}, got {col.shape}"
            )
        return col
    if isinstance(col, str):
        row = np.frombuffer(parse(col), dtype=np.uint8)
        return np.broadcast_to(row, (n, width))
    packed = b"".join(map(parse, col))
    return np.frombuffer(packed, dtype=np.uint8).reshape(n, width)


def _int_col(col: IntColumn) -> Union[int, np.ndarray]:
    if isinstance(col, (int, np.integer)):
        return int(col)
    if isinstance(col, np.ndarray):
        return col
    return np.fromiter(col, dtype=np.int64, count=len(col))


def _payload_col(col: PayloadColumn, n: int) -> Sequence[bytes]:
    if isinstance(col, (bytes, bytearray)):
        return (bytes(col),) * n
    return col


def _bool_flag_col(col, n: int, true_value: int, false_value: int):
    """Bool column → int scalar or int64 array (ICMP type, ARP oper)."""
    if isinstance(col, (bool, np.bool_)):
        return true_value if col else false_value
    flags = (
        col
        if isinstance(col, np.ndarray)
        else np.fromiter(col, dtype=bool, count=n)
    )
    return np.where(flags, true_value, false_value).astype(np.int64)


# -- checksum building blocks --------------------------------------------------


def _payload_word_sums(
    payloads: Sequence[bytes], lengths: np.ndarray
) -> np.ndarray:
    """Per-payload big-endian 16-bit word sums (odd payloads zero-padded)."""
    n = len(payloads)
    sums = np.zeros(n, dtype=np.uint64)
    if n == 0 or int(lengths.max(initial=0)) == 0:
        return sums
    odd = lengths & 1
    if odd.any():
        payloads = [
            payload + b"\0" if pad else payload
            for payload, pad in zip(payloads, odd.tolist())
        ]
    words = np.frombuffer(b"".join(payloads), dtype=">u2")
    padded = lengths + odd
    starts = np.cumsum(padded) - padded
    # Empty payloads own no words; every other one starts a reduceat run.
    nonempty = lengths > 0
    sums[nonempty] = np.add.reduceat(words, starts[nonempty] // 2, dtype=np.uint64)
    return sums


def _write_word(out: np.ndarray, column: int, values: np.ndarray) -> None:
    """Store 16-bit ``values`` big-endian at ``column`` of a uint8 matrix."""
    out[:, column] = values >> np.uint64(8)
    out[:, column + 1] = values & np.uint64(0xFF)


# -- frame assembly ------------------------------------------------------------

_packet_new = Packet.__new__
_packet_set = object.__setattr__


def _make_packets(
    frames: Sequence[bytes], times: Sequence[float], label: Label
) -> List[Packet]:
    """Bulk-construct frozen Packets (bypasses the dataclass ``__init__``)."""
    out = []
    for data, t in zip(frames, times):
        packet = _packet_new(Packet)
        _packet_set(packet, "data", data)
        _packet_set(packet, "timestamp", t)
        _packet_set(packet, "label", label)
        _packet_set(packet, "meta", {})
        out.append(packet)
    return out


def _assemble(out, payloads, times, label: Label) -> List[Packet]:
    width = out.shape[1]
    header_bytes = out.tobytes()
    if isinstance(times, np.ndarray):
        times = times.tolist()
    if payloads is None:
        frames = [
            header_bytes[i * width : (i + 1) * width]
            for i in range(len(times))
        ]
    else:
        frames = [
            header_bytes[i * width : (i + 1) * width] + payload
            for i, payload in enumerate(payloads)
        ]
    return _make_packets(frames, times, label)


_ETH_PLAN = plan_for(inet.ETHERNET)
_IPV4_PLAN = plan_for(inet.IPV4)
_IPV6_PLAN = plan_for(inet.IPV6)
_TCP_PLAN = plan_for(inet.TCP)
_UDP_PLAN = plan_for(inet.UDP)
_ICMP_PLAN = plan_for(inet.ICMP)
_ARP_PLAN = plan_for(inet.ARP)

_ETH = inet.ETHERNET.size_bytes  # 14
_IP4 = inet.IPV4.size_bytes  # 20
_IP6 = inet.IPV6.size_bytes  # 40
_IPV4_CKSUM = _ETH + _IPV4_PLAN.field_offset("checksum")
_TCP_CKSUM_REL = _TCP_PLAN.field_offset("checksum")
_UDP_CKSUM_REL = _UDP_PLAN.field_offset("checksum")
_ICMP_CKSUM_REL = _ICMP_PLAN.field_offset("checksum")


def _plens(payloads: Sequence[bytes], n: int) -> np.ndarray:
    return np.fromiter(map(len, payloads), dtype=np.int64, count=n)


def _ipv4_stack(
    out: np.ndarray,
    smacs: AddressColumn,
    dmacs: AddressColumn,
    sips: AddressColumn,
    dips: AddressColumn,
    protocol: int,
    total_lens: np.ndarray,
    idents: IntColumn,
    ttls: IntColumn,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fill Ethernet+IPv4 into ``out`` and return (src, dst) word sums."""
    n = out.shape[0]
    sip_m = _addr_col(sips, _ip4_bytes, 4, n)
    dip_m = _addr_col(dips, _ip4_bytes, 4, n)
    _ETH_PLAN.pack_batch_into(
        out[:, :_ETH],
        {
            "dst": _addr_col(dmacs, _mac_bytes, 6, n),
            "src": _addr_col(smacs, _mac_bytes, 6, n),
            "ethertype": inet.ETHERTYPE_IPV4,
        },
    )
    _IPV4_PLAN.pack_batch_into(
        out[:, _ETH : _ETH + _IP4],
        {
            "version": 4,
            "ihl": 5,
            "total_len": total_lens,
            "identification": _int_col(idents),
            "flags": 2,  # don't fragment, as in build_ipv4
            "ttl": _int_col(ttls),
            "protocol": protocol,
            "src_addr": sip_m,
            "dst_addr": dip_m,
        },
    )
    checksum = fold_checksum(matrix_word_sums(out[:, _ETH : _ETH + _IP4]))
    _write_word(out, _IPV4_CKSUM, checksum)
    return matrix_word_sums(sip_m), matrix_word_sums(dip_m)


def _render_tcp(cols: tuple, label: Label) -> List[Packet]:
    (times, smacs, dmacs, sips, dips, sports, dports, seqs, acks,
     flags, windows, ttls, idents, payloads) = cols
    n = len(times)
    payloads = _payload_col(payloads, n)
    plens = _plens(payloads, n)
    out = np.zeros((n, _ETH + _IP4 + inet.TCP.size_bytes), dtype=np.uint8)
    src_sums, dst_sums = _ipv4_stack(
        out, smacs, dmacs, sips, dips, inet.PROTO_TCP, 40 + plens,
        idents, ttls,
    )
    tcp = out[:, _ETH + _IP4 :]
    _TCP_PLAN.pack_batch_into(
        tcp,
        {
            "src_port": _int_col(sports),
            "dst_port": _int_col(dports),
            "seq": _int_col(seqs),
            "ack": _int_col(acks),
            "data_offset": 5,
            "flags": _int_col(flags),
            "window": _int_col(windows),
        },
    )
    pseudo = (
        src_sums + dst_sums + np.uint64(inet.PROTO_TCP)
        + (20 + plens).astype(np.uint64)
    )
    totals = pseudo + matrix_word_sums(tcp) + _payload_word_sums(payloads, plens)
    _write_word(tcp, _TCP_CKSUM_REL, fold_checksum(totals))
    return _assemble(out, payloads, times, label)


def _finish_udp(
    udp: np.ndarray,
    pseudo: np.ndarray,
    payloads: Sequence[bytes],
    plens: np.ndarray,
) -> None:
    totals = pseudo + matrix_word_sums(udp) + _payload_word_sums(payloads, plens)
    checksum = fold_checksum(totals)
    # 0 means "no checksum" in UDP; the builders emit 0xFFFF instead.
    checksum[checksum == 0] = 0xFFFF
    _write_word(udp, _UDP_CKSUM_REL, checksum)


def _render_udp(cols: tuple, label: Label) -> List[Packet]:
    (times, smacs, dmacs, sips, dips, sports, dports,
     ttls, idents, payloads) = cols
    n = len(times)
    payloads = _payload_col(payloads, n)
    plens = _plens(payloads, n)
    out = np.zeros((n, _ETH + _IP4 + inet.UDP.size_bytes), dtype=np.uint8)
    src_sums, dst_sums = _ipv4_stack(
        out, smacs, dmacs, sips, dips, inet.PROTO_UDP, 28 + plens,
        idents, ttls,
    )
    lengths = 8 + plens
    udp = out[:, _ETH + _IP4 :]
    _UDP_PLAN.pack_batch_into(
        udp,
        {
            "src_port": _int_col(sports),
            "dst_port": _int_col(dports),
            "length": lengths,
        },
    )
    pseudo = (
        src_sums + dst_sums + np.uint64(inet.PROTO_UDP)
        + lengths.astype(np.uint64)
    )
    _finish_udp(udp, pseudo, payloads, plens)
    return _assemble(out, payloads, times, label)


def _render_udp6(cols: tuple, label: Label) -> List[Packet]:
    (times, smacs, dmacs, sips, dips, sports, dports,
     hop_limits, payloads) = cols
    n = len(times)
    payloads = _payload_col(payloads, n)
    plens = _plens(payloads, n)
    sip_m = _addr_col(sips, _ip6_bytes, 16, n)
    dip_m = _addr_col(dips, _ip6_bytes, 16, n)
    out = np.zeros((n, _ETH + _IP6 + inet.UDP.size_bytes), dtype=np.uint8)
    _ETH_PLAN.pack_batch_into(
        out[:, :_ETH],
        {
            "dst": _addr_col(dmacs, _mac_bytes, 6, n),
            "src": _addr_col(smacs, _mac_bytes, 6, n),
            "ethertype": inet.ETHERTYPE_IPV6,
        },
    )
    lengths = 8 + plens
    _IPV6_PLAN.pack_batch_into(
        out[:, _ETH : _ETH + _IP6],
        {
            "version": 6,
            "payload_len": lengths,
            "next_header": inet.PROTO_UDP,
            "hop_limit": _int_col(hop_limits),
            "src_addr": sip_m,
            "dst_addr": dip_m,
        },
    )
    udp = out[:, _ETH + _IP6 :]
    _UDP_PLAN.pack_batch_into(
        udp,
        {
            "src_port": _int_col(sports),
            "dst_port": _int_col(dports),
            "length": lengths,
        },
    )
    # v6 pseudo-header: addresses, 32-bit length, zeros, next header.
    pseudo = (
        matrix_word_sums(sip_m)
        + matrix_word_sums(dip_m)
        + lengths.astype(np.uint64)
        + np.uint64(inet.PROTO_UDP)
    )
    _finish_udp(udp, pseudo, payloads, plens)
    return _assemble(out, payloads, times, label)


def _render_icmp(cols: tuple, label: Label) -> List[Packet]:
    (times, eth_dsts, eth_srcs, sips, dips, replies,
     icmp_ids, icmp_seqs, ttls, ip_idents, payloads) = cols
    n = len(times)
    payloads = _payload_col(payloads, n)
    plens = _plens(payloads, n)
    icmp_len = inet.ICMP.size_bytes
    out = np.zeros((n, _ETH + _IP4 + icmp_len), dtype=np.uint8)
    _ipv4_stack(
        out, eth_srcs, eth_dsts, sips, dips, inet.PROTO_ICMP,
        20 + icmp_len + plens, ip_idents, ttls,
    )
    icmp = out[:, _ETH + _IP4 :]
    _ICMP_PLAN.pack_batch_into(
        icmp,
        {
            "type": _bool_flag_col(replies, n, 0, 8),
            "identifier": _int_col(icmp_ids),
            "sequence": _int_col(icmp_seqs),
        },
    )
    totals = matrix_word_sums(icmp) + _payload_word_sums(payloads, plens)
    _write_word(icmp, _ICMP_CKSUM_REL, fold_checksum(totals))
    return _assemble(out, payloads, times, label)


def _render_arp(cols: tuple, label: Label) -> List[Packet]:
    (times, eth_dsts, eth_srcs, shas, spas, thas, tpas, requests) = cols
    n = len(times)
    out = np.zeros((n, _ETH + inet.ARP.size_bytes), dtype=np.uint8)
    _ETH_PLAN.pack_batch_into(
        out[:, :_ETH],
        {
            "dst": _addr_col(eth_dsts, _mac_bytes, 6, n),
            "src": _addr_col(eth_srcs, _mac_bytes, 6, n),
            "ethertype": inet.ETHERTYPE_ARP,
        },
    )
    _ARP_PLAN.pack_batch_into(
        out[:, _ETH:],
        {
            "htype": 1,
            "ptype": inet.ETHERTYPE_IPV4,
            "hlen": 6,
            "plen": 4,
            "oper": _bool_flag_col(requests, n, 1, 2),
            "sha": _addr_col(shas, _mac_bytes, 6, n),
            "spa": _addr_col(spas, _ip4_bytes, 4, n),
            "tha": _addr_col(thas, _mac_bytes, 6, n),
            "tpa": _addr_col(tpas, _ip4_bytes, 4, n),
        },
    )
    return _assemble(out, None, times, label)


# -- scalar (reference) backend -----------------------------------------------


def _scalar_tcp(spec: tuple) -> bytes:
    (_, smac, dmac, sip, dip, sport, dport, seq, ack,
     flags, window, ttl, ident, payload) = spec
    return inet.build_tcp_packet(
        smac, dmac, sip, dip, sport, dport,
        seq=seq, ack=ack, flags=flags, window=window,
        ttl=ttl, identification=ident, payload=payload,
    )


def _scalar_udp(spec: tuple) -> bytes:
    (_, smac, dmac, sip, dip, sport, dport, ttl, ident, payload) = spec
    return inet.build_udp_packet(
        smac, dmac, sip, dip, sport, dport,
        ttl=ttl, identification=ident, payload=payload,
    )


def _scalar_udp6(spec: tuple) -> bytes:
    (_, smac, dmac, sip, dip, sport, dport, hop_limit, payload) = spec
    return inet.build_udp6_packet(
        smac, dmac, sip, dip, sport, dport,
        hop_limit=hop_limit, payload=payload,
    )


def _scalar_icmp(spec: tuple) -> bytes:
    (_, eth_dst, eth_src, sip, dip, reply,
     icmp_id, icmp_seq, ttl, ip_ident, payload) = spec
    echo = inet.build_icmp_echo(icmp_id, icmp_seq, payload, reply=reply)
    ip = inet.build_ipv4(
        sip, dip, inet.PROTO_ICMP, echo, ttl=ttl, identification=ip_ident
    )
    return inet.build_ethernet(eth_dst, eth_src, inet.ETHERTYPE_IPV4, ip)


def _scalar_arp(spec: tuple) -> bytes:
    (_, eth_dst, eth_src, sha, spa, tha, tpa, request) = spec
    body = inet.build_arp(sha, spa, tha, tpa, request=request)
    return inet.build_ethernet(eth_dst, eth_src, inet.ETHERTYPE_ARP, body)


# -- column type tags for expanding batch columns into scalar specs ------------

_T, _MACC, _IP4C, _IP6C, _INTC, _BOOLC, _PAYC = range(7)

_ADDR_FORMATTERS = {
    _MACC: bytes_to_mac,
    _IP4C: bytes_to_ipv4,
    _IP6C: inet.bytes_to_ipv6,
}

_RENDERERS = {
    "tcp": (
        _render_tcp, _scalar_tcp,
        (_T, _MACC, _MACC, _IP4C, _IP4C, _INTC, _INTC, _INTC, _INTC,
         _INTC, _INTC, _INTC, _INTC, _PAYC),
    ),
    "udp": (
        _render_udp, _scalar_udp,
        (_T, _MACC, _MACC, _IP4C, _IP4C, _INTC, _INTC, _INTC, _INTC, _PAYC),
    ),
    "udp6": (
        _render_udp6, _scalar_udp6,
        (_T, _MACC, _MACC, _IP6C, _IP6C, _INTC, _INTC, _INTC, _PAYC),
    ),
    "icmp": (
        _render_icmp, _scalar_icmp,
        (_T, _MACC, _MACC, _IP4C, _IP4C, _BOOLC, _INTC, _INTC, _INTC,
         _INTC, _PAYC),
    ),
    "arp": (
        _render_arp, _scalar_arp,
        (_T, _MACC, _MACC, _MACC, _IP4C, _MACC, _IP4C, _BOOLC),
    ),
}


def _expand_column(col, tag: int, n: int) -> List:
    """One batch column → per-row Python values for the scalar builders."""
    if tag == _T:
        return [float(v) for v in col]
    if tag == _PAYC:
        return list(_payload_col(col, n))
    if isinstance(col, np.ndarray):
        if col.ndim == 2:
            formatter = _ADDR_FORMATTERS[tag]
            return [formatter(row.tobytes()) for row in col]
        if tag == _BOOLC:
            return [bool(v) for v in col]
        return [int(v) for v in col]
    if isinstance(col, (str, bool, int, np.bool_, np.integer)):
        if tag == _BOOLC:
            return [bool(col)] * n
        return [col if isinstance(col, str) else int(col)] * n
    return list(col)


class FrameEmitter:
    """Collects frame specs from one generator, renders them in batch.

    One emitter per ``generate()`` call; every packet gets the same
    ``(category, device)`` label.  Spec tuples always start with the
    timestamp; emission order is preserved in the returned packet list
    (*not* re-sorted — the trace assembler sorts globally, exactly as it
    did for the scalar generators).
    """

    def __init__(self, category: str, device: str = ""):
        self._label = Label(category, device)
        self._order: List[Tuple[str, int]] = []
        self._specs: dict = {kind: [] for kind in _RENDERERS}
        self._batches: List[Tuple[str, tuple]] = []
        self._raw: List[Tuple[float, bytes]] = []

    def _push(self, kind: str, spec: tuple) -> None:
        bucket = self._specs[kind]
        self._order.append((kind, len(bucket)))
        bucket.append(spec)

    # -- emit one frame spec per call ----------------------------------------

    def tcp(
        self, t: float, smac: str, dmac: str, sip: str, dip: str,
        sport: int, dport: int, *, seq: int = 0, ack: int = 0,
        flags: int = inet.TCP_ACK, window: int = 0xFFFF, ttl: int = 64,
        ident: int = 0, payload: bytes = b"",
    ) -> None:
        self._push("tcp", (t, smac, dmac, sip, dip, sport, dport, seq, ack,
                           flags, window, ttl, ident, payload))

    def udp(
        self, t: float, smac: str, dmac: str, sip: str, dip: str,
        sport: int, dport: int, *, ttl: int = 64, ident: int = 0,
        payload: bytes = b"",
    ) -> None:
        self._push("udp", (t, smac, dmac, sip, dip, sport, dport,
                           ttl, ident, payload))

    def udp6(
        self, t: float, smac: str, dmac: str, sip: str, dip: str,
        sport: int, dport: int, *, hop_limit: int = 64, payload: bytes = b"",
    ) -> None:
        self._push("udp6", (t, smac, dmac, sip, dip, sport, dport,
                            hop_limit, payload))

    def icmp_echo(
        self, t: float, eth_dst: str, eth_src: str, sip: str, dip: str,
        *, reply: bool = False, identifier: int = 0, sequence: int = 0,
        ttl: int = 64, ip_ident: int = 0, payload: bytes = b"",
    ) -> None:
        self._push("icmp", (t, eth_dst, eth_src, sip, dip, reply,
                            identifier, sequence, ttl, ip_ident, payload))

    def arp(
        self, t: float, eth_dst: str, eth_src: str, *, sender_mac: str,
        sender_ip: str, target_mac: str, target_ip: str, request: bool = True,
    ) -> None:
        self._push("arp", (t, eth_dst, eth_src, sender_mac, sender_ip,
                           target_mac, target_ip, request))

    def raw(self, t: float, data: bytes) -> None:
        """Pre-built frame bytes (non-inet stacks, odd cases)."""
        self._order.append(("raw", len(self._raw)))
        self._raw.append((t, data))

    # -- emit whole column batches (vectorised generators) -------------------

    def _push_batch(self, kind: str, cols: tuple) -> None:
        self._order.append(("batch", len(self._batches)))
        self._batches.append((kind, cols))

    def tcp_batch(
        self, times, smacs, dmacs, sips, dips, sports, dports, *,
        seqs: IntColumn = 0, acks: IntColumn = 0,
        flags: IntColumn = inet.TCP_ACK, windows: IntColumn = 0xFFFF,
        ttls: IntColumn = 64, idents: IntColumn = 0,
        payloads: PayloadColumn = b"",
    ) -> None:
        self._push_batch("tcp", (times, smacs, dmacs, sips, dips, sports,
                                 dports, seqs, acks, flags, windows, ttls,
                                 idents, payloads))

    def udp_batch(
        self, times, smacs, dmacs, sips, dips, sports, dports, *,
        ttls: IntColumn = 64, idents: IntColumn = 0,
        payloads: PayloadColumn = b"",
    ) -> None:
        self._push_batch("udp", (times, smacs, dmacs, sips, dips, sports,
                                 dports, ttls, idents, payloads))

    def udp6_batch(
        self, times, smacs, dmacs, sips, dips, sports, dports, *,
        hop_limits: IntColumn = 64, payloads: PayloadColumn = b"",
    ) -> None:
        self._push_batch("udp6", (times, smacs, dmacs, sips, dips, sports,
                                  dports, hop_limits, payloads))

    def icmp_echo_batch(
        self, times, eth_dsts, eth_srcs, sips, dips, *,
        replies=False, identifiers: IntColumn = 0, sequences: IntColumn = 0,
        ttls: IntColumn = 64, ip_idents: IntColumn = 0,
        payloads: PayloadColumn = b"",
    ) -> None:
        self._push_batch("icmp", (times, eth_dsts, eth_srcs, sips, dips,
                                  replies, identifiers, sequences, ttls,
                                  ip_idents, payloads))

    def arp_batch(
        self, times, eth_dsts, eth_srcs, *, sender_macs, sender_ips,
        target_macs, target_ips, requests=True,
    ) -> None:
        self._push_batch("arp", (times, eth_dsts, eth_srcs, sender_macs,
                                 sender_ips, target_macs, target_ips,
                                 requests))

    # -- render ----------------------------------------------------------------

    def __len__(self) -> int:
        total = len(self._raw)
        for specs in self._specs.values():
            total += len(specs)
        for _, cols in self._batches:
            total += len(cols[0])
        return total

    def _render_batch(self, kind: str, cols: tuple) -> List[Packet]:
        batch, scalar, tags = _RENDERERS[kind]
        if _FASTPATH:
            return batch(cols, self._label)
        n = len(cols[0])
        columns = [_expand_column(col, tag, n) for col, tag in zip(cols, tags)]
        return _make_packets(
            [scalar(spec) for spec in zip(*columns)],
            columns[0],
            self._label,
        )

    def packets(self) -> List[Packet]:
        """Render every emitted spec, preserving emission order."""
        label = self._label
        rendered: dict = {}
        for kind, (batch, scalar, _) in _RENDERERS.items():
            specs = self._specs[kind]
            if not specs:
                continue
            if _FASTPATH:
                rendered[kind] = batch(tuple(zip(*specs)), label)
            else:
                rendered[kind] = _make_packets(
                    [scalar(spec) for spec in specs],
                    [spec[0] for spec in specs],
                    label,
                )
        if self._raw:
            rendered["raw"] = _make_packets(
                [data for _, data in self._raw],
                [t for t, _ in self._raw],
                label,
            )
        batches = [
            self._render_batch(kind, cols) for kind, cols in self._batches
        ]
        out: List[Packet] = []
        for kind, index in self._order:
            if kind == "batch":
                out.extend(batches[index])
            else:
                out.append(rendered[kind][index])
        return out
