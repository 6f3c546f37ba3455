"""Classic libpcap file reader/writer, implemented from the format spec.

Supports both byte orders and microsecond/nanosecond timestamp variants on
read; writes little-endian microsecond files (the common tcpdump default).
Gzip-compressed captures are detected by magic bytes and decompressed
transparently on read, including from non-seekable streams (pipes), so
corpus chunks can ship compressed without a separate decompress step.
Lets generated traces round-trip through standard tooling and lets users
feed their own captures to the pipeline.
"""

from __future__ import annotations

import gzip
import struct
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, List, Union

from repro.net.packet import Packet

__all__ = [
    "MAX_RECORD_BYTES",
    "PcapError",
    "write_pcap",
    "read_pcap",
    "iter_pcap",
    "iter_pcap_buffered",
    "open_pcap_stream",
    "LINKTYPE_ETHERNET",
    "LINKTYPE_USER0",
]

MAGIC_MICROS = 0xA1B2C3D4
MAGIC_NANOS = 0xA1B23C4D

#: DLT_EN10MB — Ethernet frames.
LINKTYPE_ETHERNET = 1
#: DLT_USER0 — we use it for the non-IP (Zigbee-like / BLE-like) traces.
LINKTYPE_USER0 = 147

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")

#: The two-byte gzip member header (RFC 1952).
GZIP_MAGIC = b"\x1f\x8b"

#: Longest record either reader accepts when the file's snaplen is 0 or
#: larger (libpcap's maximum snapshot length).
MAX_RECORD_BYTES = 262_144


class PcapError(ValueError):
    """Raised on malformed pcap input."""


def _write_stream(
    handle: BinaryIO,
    packets: Iterable[Packet],
    *,
    linktype: int,
    snaplen: int,
) -> int:
    count = 0
    handle.write(
        _GLOBAL_HEADER.pack(MAGIC_MICROS, 2, 4, 0, 0, snaplen, linktype)
    )
    for packet in packets:
        seconds = int(packet.timestamp)
        micros = int(round((packet.timestamp - seconds) * 1_000_000))
        if micros >= 1_000_000:  # guard against float rounding to 1.0s
            seconds += 1
            micros -= 1_000_000
        captured = packet.data[:snaplen]
        handle.write(
            _RECORD_HEADER.pack(seconds, micros, len(captured), len(packet.data))
        )
        handle.write(captured)
        count += 1
    return count


def write_pcap(
    destination: Union[str, Path, BinaryIO],
    packets: Iterable[Packet],
    *,
    linktype: int = LINKTYPE_ETHERNET,
    snaplen: int = 65535,
) -> int:
    """Write ``packets`` to a path or open binary stream; returns the count.

    A path argument is opened and closed here; an already-open writable
    handle (e.g. a ``gzip.GzipFile`` or a digest-computing wrapper) is
    written through and left open for the caller.
    """
    if hasattr(destination, "write"):
        return _write_stream(
            destination, packets, linktype=linktype, snaplen=snaplen
        )
    with open(destination, "wb") as handle:
        return _write_stream(handle, packets, linktype=linktype, snaplen=snaplen)


def _record_limit(snaplen: int) -> int:
    """Longest record a file with this header snaplen may hold."""
    return snaplen if 0 < snaplen <= MAX_RECORD_BYTES else MAX_RECORD_BYTES


def _too_long(captured_len: int, limit: int) -> PcapError:
    # Raised before reading: a corrupt length would otherwise make the
    # reader buffer the rest of the stream looking for the record's end.
    return PcapError(
        f"pcap record of {captured_len} bytes exceeds the {limit}-byte snaplen"
    )


def _read_exact(handle: BinaryIO, size: int) -> bytes:
    data = handle.read(size)
    if len(data) != size:
        raise PcapError(f"truncated pcap: wanted {size} bytes, got {len(data)}")
    return data


def _iter_stream(handle: BinaryIO) -> Iterator[Packet]:
    """Stream packets off an open binary pcap stream, one record at a time."""
    magic_raw = handle.read(4)
    if len(magic_raw) != 4:
        raise PcapError("file too short for pcap global header")
    for endian in ("<", ">"):
        magic = struct.unpack(endian + "I", magic_raw)[0]
        if magic in (MAGIC_MICROS, MAGIC_NANOS):
            break
    else:
        raise PcapError(f"bad pcap magic {magic_raw!r}")
    nanos = magic == MAGIC_NANOS
    header = struct.Struct(endian + "HHiIII")
    record = struct.Struct(endian + "IIII")
    # version, zone, sigfigs, snaplen, linktype
    max_record = _record_limit(header.unpack(_read_exact(handle, header.size))[4])
    divisor = 1e9 if nanos else 1e6
    while True:
        raw = handle.read(record.size)
        if not raw:
            return
        if len(raw) != record.size:
            raise PcapError("truncated pcap record header")
        seconds, fraction, captured_len, __ = record.unpack(raw)
        if captured_len > max_record:
            raise _too_long(captured_len, max_record)
        data = _read_exact(handle, captured_len)
        yield Packet(data=data, timestamp=seconds + fraction / divisor)


class _PrefixStream:
    """A read-only stream that replays sniffed bytes before the handle.

    Magic-byte sniffing consumes the head of the stream; pushing the
    bytes back this way works on non-seekable sources (pipes, sockets)
    where ``seek(0)`` would fail.
    """

    def __init__(self, prefix: bytes, handle: BinaryIO):
        self._prefix = prefix
        self._handle = handle

    def read(self, size: int = -1) -> bytes:
        if self._prefix:
            if size is None or size < 0:
                data = self._prefix + self._handle.read(size)
                self._prefix = b""
                return data
            taken = self._prefix[:size]
            self._prefix = self._prefix[size:]
            if len(taken) < size:
                taken += self._handle.read(size - len(taken))
            return taken
        return self._handle.read(size)


def open_pcap_stream(handle: BinaryIO) -> BinaryIO:
    """Wrap an open binary stream, decompressing gzip transparently.

    Sniffs the two-byte gzip magic (replaying it via an internal prefix
    buffer, so non-seekable streams work) and returns either a
    decompressing reader or the original byte stream.  Callers that need
    the *uncompressed* byte stream — e.g. for content-digest
    verification of corpus chunks — can wrap the returned stream before
    handing it to :func:`iter_pcap`.
    """
    head = handle.read(2)
    stream: BinaryIO = _PrefixStream(head, handle)
    if head == GZIP_MAGIC:
        return gzip.GzipFile(fileobj=stream, mode="rb")
    return stream


def iter_pcap(source: Union[str, Path, BinaryIO]) -> Iterator[Packet]:
    """Stream packets from a pcap file or open binary stream.

    Never materialises the capture: exactly one record is resident at a
    time, so arbitrarily large files (and non-seekable streams such as
    pipes — pass the open handle) can feed the serving layer in bounded
    memory.  Gzip-compressed captures are detected by magic bytes and
    decompressed on the fly.  A path argument is opened and closed by
    the iterator; an already-open handle is left open for the caller.
    Labels are not stored in pcap.
    """
    if hasattr(source, "read"):
        return _iter_stream(open_pcap_stream(source))

    def _from_path() -> Iterator[Packet]:
        with open(source, "rb") as handle:
            yield from _iter_stream(open_pcap_stream(handle))

    return _from_path()


def read_pcap(source: Union[str, Path, BinaryIO]) -> List[Packet]:
    """Read an entire pcap file into a list (see :func:`iter_pcap`)."""
    return list(iter_pcap(source))


# Endurance replay streams millions of records through iter_pcap-shaped
# parsing, where per-record Python overhead (two reads, a dataclass
# __init__ with field factories) dominates.  The buffered variant below
# exists for that hot path: it reads fixed-size blocks (so wrappers like
# digest readers see a handful of large reads per chunk instead of two
# tiny ones per record) and constructs packets without re-running the
# default factories.  Memory stays bounded by the block size.

from repro.net.packet import Label as _Label

_DEFAULT_LABEL = _Label()
_PACKET_NEW = Packet.__new__
_SETATTR = object.__setattr__


def iter_pcap_buffered(
    handle: BinaryIO, *, block_size: int = 1 << 16
) -> Iterator[Packet]:
    """Stream packets off an open pcap stream, reading block-at-a-time.

    Semantically :func:`iter_pcap` over an open handle (gzip sniffing
    included), but reads ``block_size`` bytes per call instead of two
    small reads per record — the high-throughput path for corpus
    replay, where a read-through digest wrapper then hashes a few large
    blocks per chunk rather than millions of 16-byte slivers.  Memory
    is bounded by ``block_size`` plus one record; the 64 KB default
    keeps the parse buffer resident in cache alongside the consumer's
    working set (bigger blocks measurably slow the serving pipeline).
    Both readers reject a record longer than the header's snaplen (or
    :data:`MAX_RECORD_BYTES`) with :class:`PcapError` before reading it.
    """
    stream = open_pcap_stream(handle)
    read = stream.read
    buffer = read(24 + block_size)
    if len(buffer) < 24:
        raise PcapError("file too short for pcap global header")
    for endian in ("<", ">"):
        magic = struct.unpack_from(endian + "I", buffer)[0]
        if magic in (MAGIC_MICROS, MAGIC_NANOS):
            break
    else:
        raise PcapError(f"bad pcap magic {buffer[:4]!r}")
    divisor = 1e9 if magic == MAGIC_NANOS else 1e6
    max_record = _record_limit(struct.unpack_from(endian + "I", buffer, 16)[0])
    unpack_record = struct.Struct(endian + "IIII").unpack_from
    packet_new, setattr_, packet_cls = _PACKET_NEW, _SETATTR, Packet
    label = _DEFAULT_LABEL
    pos = 24
    limit = len(buffer)
    while True:
        if pos + 16 > limit:
            buffer = buffer[pos:] + read(block_size)
            pos = 0
            limit = len(buffer)
            if limit == 0:
                return
            if limit < 16:
                raise PcapError("truncated pcap record header")
        seconds, fraction, captured_len, __ = unpack_record(buffer, pos)
        if captured_len > max_record:
            raise _too_long(captured_len, max_record)
        pos += 16
        end = pos + captured_len
        while end > limit:
            more = read(block_size)
            if not more:
                raise PcapError(
                    f"truncated pcap: wanted {captured_len} bytes, "
                    f"got {limit - pos}"
                )
            buffer = buffer[pos:] + more
            end -= pos
            pos = 0
            limit = len(buffer)
        packet = packet_new(packet_cls)
        setattr_(packet, "data", buffer[pos:end])
        setattr_(packet, "timestamp", seconds + fraction / divisor)
        setattr_(packet, "label", label)
        setattr_(packet, "meta", {})
        yield packet
        pos = end
