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

import numpy as np

from repro.net.frames import FrameBlock, block_packets
from repro.net.packet import Packet

__all__ = [
    "MAX_RECORD_BYTES",
    "PcapError",
    "write_pcap",
    "read_pcap",
    "iter_pcap",
    "iter_pcap_blocks",
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


#: Bytes of the first read after the global header.  Small, so a reader
#: that stops early (or hits a corrupt length) has pulled little of the
#: stream; later reads take whole blocks.
_FIRST_READ = 64

#: Header bytes 0..12 of each record: seconds, fraction, captured length.
_HEADER_FIELDS = np.arange(12)


def iter_pcap_blocks(
    handle: BinaryIO, *, block_size: int = 1 << 16
) -> Iterator[FrameBlock]:
    """Stream an open pcap stream as :class:`~repro.net.frames.FrameBlock`\\ s.

    The one pcap reader: every other entry point wraps it.  Gzip is
    sniffed and decompressed (see :func:`open_pcap_stream`).  The reader
    pulls ``block_size`` bytes per read, after a small first read, and
    yields the complete records of each read as one block: the read
    buffer plus record offsets, lengths and stamps, with no
    :class:`Packet` built.  A wrapper such as a digest reader therefore
    sees a few large reads per file, not two small ones per record.
    Memory is bounded by the block size plus one record; the 64 KB
    default keeps the buffer in cache next to the consumer's working
    set.  A record longer than the header's snaplen (or
    :data:`MAX_RECORD_BYTES`) raises :class:`PcapError` before it is
    read, and a truncated tail raises after the complete records before
    it were yielded.
    """
    read = open_pcap_stream(handle).read
    buffer = read(24 + _FIRST_READ)
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
    length_at = struct.Struct(endian + "I").unpack_from
    fields = np.dtype(endian + "u4")
    pos = 24
    while True:
        limit = len(buffer)
        starts: List[int] = []
        append = starts.append
        error = None
        while pos + 16 <= limit:
            captured_len = length_at(buffer, pos + 8)[0]
            if captured_len > max_record:
                error = _too_long(captured_len, max_record)
                break
            end = pos + 16 + captured_len
            if end > limit:
                break
            append(pos)
            pos = end
        if starts:
            yield _frame_block(buffer, starts, fields, divisor)
        if error is not None:
            raise error
        missing = 16 if pos + 16 > limit else 16 + captured_len
        more = read(max(block_size, missing - (limit - pos)))
        if not more:
            if pos == limit:
                return
            if limit - pos < 16:
                raise PcapError("truncated pcap record header")
            raise PcapError(
                f"truncated pcap: wanted {captured_len} bytes, "
                f"got {limit - pos - 16}"
            )
        buffer = buffer[pos:] + more
        pos = 0


def _frame_block(
    buffer: bytes, starts: List[int], fields: np.dtype, divisor: float
) -> FrameBlock:
    """The records at ``starts`` as one block; header fields via numpy."""
    records = np.array(starts, dtype=np.int64)
    view = np.frombuffer(buffer, dtype=np.uint8)
    seconds, fraction, lengths = (
        view[records[:, None] + _HEADER_FIELDS].view(fields).T
    )
    # The same float operations as ``seconds + fraction / divisor``.
    stamps = seconds.astype(np.float64) + fraction / divisor
    return FrameBlock(buffer, records + 16, lengths.astype(np.int64), stamps)


def iter_pcap(source: Union[str, Path, BinaryIO]) -> Iterator[Packet]:
    """Stream packets from a pcap file or open binary stream.

    Never materialises the capture: one read block (see
    :func:`iter_pcap_blocks`) is resident at a time, so arbitrarily
    large files (and non-seekable streams such as pipes — pass the open
    handle) can feed the serving layer in bounded memory.
    Gzip-compressed captures are detected by magic bytes and
    decompressed on the fly.  A path argument is opened and closed by
    the iterator; an already-open handle is left open for the caller.
    Labels are not stored in pcap.
    """
    if hasattr(source, "read"):
        return block_packets(iter_pcap_blocks(source))

    def _from_path() -> Iterator[Packet]:
        with open(source, "rb") as handle:
            yield from block_packets(iter_pcap_blocks(handle))

    return _from_path()


def read_pcap(source: Union[str, Path, BinaryIO]) -> List[Packet]:
    """Read an entire pcap file into a list (see :func:`iter_pcap`)."""
    return list(iter_pcap(source))

