"""Frame blocks: many captured frames in one buffer, read by offset.

A P4 target parses fixed byte offsets out of a packet buffer; it never
builds an object per packet.  A :class:`FrameBlock` gives the serve
path the same view of a capture: the bytes of one pcap read block plus
int64 arrays saying where each frame starts and how long it is, and a
float64 array of capture stamps.  Match keys, sizes and flow hashes
come out of the buffer with numpy gathers, and a
:class:`~repro.net.packet.Packet` is built for a row only when a caller
asks for one.

:class:`FrameRows` is a ``Sequence[Packet]`` over rows of one or more
blocks, which is how a serve batch holds block rows.
"""

from __future__ import annotations

import collections.abc
import zlib
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.net.packet import Label, Packet

__all__ = ["FrameBlock", "FrameRows", "block_packets", "crc32_rows"]

_DEFAULT_LABEL = Label()
_PACKET_NEW = Packet.__new__
_SETATTR = object.__setattr__


def _crc_tables() -> Tuple[np.ndarray, np.ndarray]:
    """Word tables of the reflected CRC-32 that zlib computes.

    Four byte steps of the CRC over a 32-bit value ``v`` (with no data)
    are linear in ``v``, so they split into a table for its low half
    and one for its high half: ``low[v & 0xFFFF] ^ high[v >> 16]``.
    Built in slices, so no large temporary is allocated and freed at
    import (that would move the allocator's mmap threshold for the
    whole process).
    """
    table = np.arange(256, dtype=np.uint32)
    for __ in range(8):
        table = np.where(table & 1, (table >> 1) ^ np.uint32(0xEDB88320), table >> 1)
    halves = (np.empty(1 << 16, dtype=np.uint32), np.empty(1 << 16, dtype=np.uint32))
    for start in range(0, 1 << 16, 1 << 12):
        values = np.arange(start, start + (1 << 12), dtype=np.uint32)
        for half, shift in zip(halves, (0, 16)):
            crc = values << np.uint32(shift)
            for __ in range(4):
                crc = table[crc & 0xFF] ^ (crc >> 8)
            half[start : start + (1 << 12)] = crc
    return halves


_CRC_LOW, _CRC_HIGH = _crc_tables()


def crc32_rows(matrix: np.ndarray) -> np.ndarray:
    """``zlib.crc32`` of every row of an ``(n, 4 * w)`` uint8 matrix, as uint32."""
    words = np.ascontiguousarray(matrix).view("<u4")
    crc = np.full(matrix.shape[0], 0xFFFFFFFF, dtype=np.uint32)
    for word in words.T:
        crc ^= word
        crc = _CRC_LOW[crc & 0xFFFF] ^ _CRC_HIGH[crc >> 16]
    return crc ^ np.uint32(0xFFFFFFFF)


class FrameBlock:
    """Frames that share one buffer.

    Attributes:
        buffer: the bytes the frames live in.
        offsets: ``(n,)`` int64 start of each frame in ``buffer``.
        lengths: ``(n,)`` int64 captured length of each frame.
        stamps: ``(n,)`` float64 capture timestamps, seconds.
    """

    __slots__ = ("buffer", "offsets", "lengths", "stamps", "_view")

    def __init__(
        self,
        buffer: bytes,
        offsets: np.ndarray,
        lengths: np.ndarray,
        stamps: np.ndarray,
    ):
        self.buffer = buffer
        self.offsets = offsets
        self.lengths = lengths
        self.stamps = stamps
        self._view = np.frombuffer(buffer, dtype=np.uint8)

    def __len__(self) -> int:
        return self.offsets.shape[0]

    def packet(self, row: int) -> Packet:
        """Row ``row`` as a :class:`Packet`."""
        return next(self.packets(np.array([row])))

    def packets(self, rows: Optional[np.ndarray] = None) -> Iterator[Packet]:
        """The rows (all by default) as packets, built one at a time."""
        offsets, lengths, stamps = self.offsets, self.lengths, self.stamps
        if rows is not None:
            offsets, lengths, stamps = offsets[rows], lengths[rows], stamps[rows]
        buffer = self.buffer
        # Packet() without re-running the dataclass field factories.
        packet_new, setattr_, packet_cls = _PACKET_NEW, _SETATTR, Packet
        label = _DEFAULT_LABEL
        for start, end, stamp in zip(
            offsets.tolist(), (offsets + lengths).tolist(), stamps.tolist()
        ):
            packet = packet_new(packet_cls)
            setattr_(packet, "data", buffer[start:end])
            setattr_(packet, "timestamp", stamp)
            setattr_(packet, "label", label)
            setattr_(packet, "meta", {})
            yield packet

    def bytes_at(self, rows: np.ndarray, offsets: Sequence[int]) -> np.ndarray:
        """Byte values at ``offsets`` for each row, as ``(len(rows), k)`` uint8.

        Offsets past the end of a short frame read 0, as in
        :meth:`Packet.bytes_at`.
        """
        columns = np.asarray(offsets, dtype=np.int64)
        lengths = self.lengths[rows]
        if not self._view.size:  # every frame empty: nothing to gather
            return np.zeros((len(rows), len(columns)), dtype=np.uint8)
        out = self._view.take(self.offsets[rows, None] + columns, mode="clip")
        if len(rows) and lengths.min() <= columns.max():
            out[columns >= lengths[:, None]] = 0
        return out

    def crc32(self, rows: np.ndarray, start: int, stop: int) -> np.ndarray:
        """``zlib.crc32`` of bytes ``start:stop`` of each row, as int64.

        A frame shorter than ``stop`` bytes hashes in full.
        """
        out = np.empty(len(rows), dtype=np.int64)
        short = self.lengths[rows] < stop
        full = rows[~short]
        out[~short] = crc32_rows(
            self._view[self.offsets[full, None] + np.arange(start, stop)]
        )
        if short.any():
            buffer = self.buffer
            out[short] = [
                zlib.crc32(buffer[begin : begin + length])
                for begin, length in zip(
                    self.offsets[rows[short]].tolist(),
                    self.lengths[rows[short]].tolist(),
                )
            ]
        return out


def block_packets(blocks: Iterable[FrameBlock]) -> Iterator[Packet]:
    """Every row of every block, as packets, in order."""
    for block in blocks:
        yield from block.packets()


class FrameRows(collections.abc.Sequence):
    """Rows of frame blocks, as a ``Sequence[Packet]`` built on demand.

    ``segments`` is a tuple of ``(block, rows)`` pairs, ``rows`` an int64
    array of row numbers in ``block``; the sequence is their rows in
    order.  Indexing or iterating builds packets; :meth:`keys`,
    :meth:`sizes` and :meth:`stamps` read the block arrays.
    """

    __slots__ = ("segments", "_length")

    def __init__(self, segments: Sequence[Tuple[FrameBlock, np.ndarray]]):
        self.segments = tuple(segments)
        self._length = sum(len(rows) for __, rows in self.segments)

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Packet]:
        for block, rows in self.segments:
            yield from block.packets(rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._length)
            if step != 1:
                return list(self)[index]
            return self._slice(start, stop)
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError("frame row out of range")
        for block, rows in self.segments:
            if index < len(rows):
                return block.packet(int(rows[index]))
            index -= len(rows)

    def _slice(self, start: int, stop: int) -> "FrameRows":
        kept: List[Tuple[FrameBlock, np.ndarray]] = []
        for block, rows in self.segments:
            n = len(rows)
            if start < n and stop > 0:
                kept.append((block, rows[max(start, 0) : min(stop, n)]))
            start -= n
            stop -= n
        return FrameRows(kept)

    def _concat(self, arrays: List[np.ndarray]) -> np.ndarray:
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

    def keys(self, offsets: Sequence[int]) -> np.ndarray:
        """``(n, k)`` uint8 match keys, as :meth:`Packet.batch_keys` gives."""
        if not self.segments:
            return np.zeros((0, len(offsets)), dtype=np.uint8)
        return self._concat(
            [block.bytes_at(rows, offsets) for block, rows in self.segments]
        )

    def sizes(self) -> np.ndarray:
        """``(n,)`` int64 frame lengths."""
        if not self.segments:
            return np.zeros(0, dtype=np.int64)
        return self._concat([block.lengths[rows] for block, rows in self.segments])

    def stamps(self) -> np.ndarray:
        """``(n,)`` float64 capture stamps."""
        if not self.segments:
            return np.zeros(0, dtype=np.float64)
        return self._concat([block.stamps[rows] for block, rows in self.segments])
