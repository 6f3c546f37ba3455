"""Low-level byte and bit manipulation helpers.

Everything in :mod:`repro` that touches wire formats goes through this
module: integer packing, checksum computation, bit slicing, and hexdump
pretty-printing.  Keeping the primitives in one place makes the protocol
serialisers (:mod:`repro.net.protocols`) short and uniform.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

__all__ = [
    "int_to_bytes",
    "bytes_to_int",
    "get_bits",
    "set_bits",
    "ones_complement_checksum",
    "ones_complement_checksum_batch",
    "fold_checksum",
    "matrix_word_sums",
    "crc16_ccitt",
    "hexdump",
    "xor_bytes",
    "mac_to_bytes",
    "bytes_to_mac",
    "ipv4_to_bytes",
    "bytes_to_ipv4",
]


def int_to_bytes(value: int, length: int, byteorder: str = "big") -> bytes:
    """Pack ``value`` into exactly ``length`` bytes.

    Raises:
        ValueError: if ``value`` is negative or does not fit in ``length``
            bytes.
    """
    if value < 0:
        raise ValueError(f"cannot pack negative value {value}")
    if value >= 1 << (8 * length):
        raise ValueError(f"value {value} does not fit in {length} bytes")
    return value.to_bytes(length, byteorder)  # type: ignore[arg-type]


def bytes_to_int(data: bytes, byteorder: str = "big") -> int:
    """Unpack ``data`` as an unsigned integer."""
    return int.from_bytes(data, byteorder)  # type: ignore[arg-type]


def get_bits(value: int, high: int, low: int) -> int:
    """Extract bits ``high..low`` (inclusive, 0 = LSB) from ``value``."""
    if high < low:
        raise ValueError(f"high ({high}) must be >= low ({low})")
    width = high - low + 1
    return (value >> low) & ((1 << width) - 1)


def set_bits(value: int, high: int, low: int, field: int) -> int:
    """Return ``value`` with bits ``high..low`` replaced by ``field``."""
    if high < low:
        raise ValueError(f"high ({high}) must be >= low ({low})")
    width = high - low + 1
    if field >= 1 << width:
        raise ValueError(f"field {field} does not fit in {width} bits")
    mask = ((1 << width) - 1) << low
    return (value & ~mask) | (field << low)


def ones_complement_checksum(data: bytes) -> int:
    """RFC 1071 Internet checksum over ``data`` (pads odd length with 0)."""
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def fold_checksum(totals: np.ndarray) -> np.ndarray:
    """Vectorised RFC 1071 finish: fold carries and invert word sums.

    ``totals`` are per-row sums of big-endian 16-bit words (uint64);
    returns the checksum per row, bit-identical to
    :func:`ones_complement_checksum` run on the same bytes.
    """
    totals = totals.astype(np.uint64, copy=True)
    while (totals >> np.uint64(16)).any():
        totals = (totals & np.uint64(0xFFFF)) + (totals >> np.uint64(16))
    return totals ^ np.uint64(0xFFFF)


def matrix_word_sums(matrix: np.ndarray) -> np.ndarray:
    """Per-row sum of big-endian 16-bit words of an even-width uint8 matrix.

    Accepts non-contiguous views (e.g. column slices of a frame matrix).
    """
    if matrix.shape[1] % 2:
        raise ValueError("matrix width must be even")
    hi = matrix[:, 0::2].astype(np.uint64)
    lo = matrix[:, 1::2].astype(np.uint64)
    return ((hi << np.uint64(8)) | lo).sum(axis=1)


def ones_complement_checksum_batch(matrix: np.ndarray) -> np.ndarray:
    """Row-wise Internet checksum of an ``(n, width)`` uint8 matrix.

    Odd widths are padded with a zero byte, matching the scalar helper.
    """
    matrix = np.asarray(matrix, dtype=np.uint8)
    if matrix.shape[1] % 2:
        padded = np.zeros(
            (matrix.shape[0], matrix.shape[1] + 1), dtype=np.uint8
        )
        padded[:, :-1] = matrix
        matrix = padded
    return fold_checksum(matrix_word_sums(matrix))


def crc16_ccitt(data: bytes, initial: int = 0xFFFF) -> int:
    """CRC-16/CCITT-FALSE, used by our Zigbee-like link layer."""
    crc = initial
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """Byte-wise XOR of two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return bytes(x ^ y for x, y in zip(a, b))


def hexdump(data: bytes, width: int = 16) -> str:
    """Classic offset / hex / ASCII dump, one string, no trailing newline."""
    lines: List[str] = []
    for offset in range(0, len(data), width):
        chunk = data[offset : offset + width]
        hex_part = " ".join(f"{b:02x}" for b in chunk)
        ascii_part = "".join(chr(b) if 32 <= b < 127 else "." for b in chunk)
        lines.append(f"{offset:08x}  {hex_part:<{width * 3 - 1}}  {ascii_part}")
    return "\n".join(lines)


def mac_to_bytes(mac: str) -> bytes:
    """Parse ``aa:bb:cc:dd:ee:ff`` into 6 bytes."""
    parts = mac.split(":")
    if len(parts) != 6:
        raise ValueError(f"invalid MAC address {mac!r}")
    return bytes(int(p, 16) for p in parts)


def bytes_to_mac(data: bytes) -> str:
    """Format 6 bytes as a colon-separated MAC address."""
    if len(data) != 6:
        raise ValueError(f"MAC address must be 6 bytes, got {len(data)}")
    return ":".join(f"{b:02x}" for b in data)


def ipv4_to_bytes(address: str) -> bytes:
    """Parse dotted-quad ``a.b.c.d`` into 4 bytes."""
    parts = address.split(".")
    if len(parts) != 4:
        raise ValueError(f"invalid IPv4 address {address!r}")
    values = [int(p) for p in parts]
    if any(v < 0 or v > 255 for v in values):
        raise ValueError(f"invalid IPv4 address {address!r}")
    return bytes(values)


def bytes_to_ipv4(data: bytes) -> str:
    """Format 4 bytes as a dotted-quad IPv4 address."""
    if len(data) != 4:
        raise ValueError(f"IPv4 address must be 4 bytes, got {len(data)}")
    return ".".join(str(b) for b in data)


def iter_prefix_ranges(lo: int, hi: int, width_bits: int) -> Iterable[Tuple[int, int]]:
    """Decompose the integer range ``[lo, hi]`` into (value, mask) ternary pairs.

    This is the classic range-to-prefix expansion used when installing range
    matches into TCAM-style ternary tables.  Each yielded ``(value, mask)``
    covers a maximal aligned power-of-two block inside the range; matching is
    ``(x & mask) == value``.  The number of pairs is at most
    ``2 * width_bits - 2`` for any range.
    """
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    if hi >= 1 << width_bits:
        raise ValueError(f"range end {hi} does not fit in {width_bits} bits")
    full = (1 << width_bits) - 1
    while lo <= hi:
        # Largest block size aligned at lo.
        max_align = lo & -lo if lo else 1 << width_bits
        size = max_align
        while size > hi - lo + 1:
            size >>= 1
        mask = full & ~(size - 1)
        yield lo, mask
        lo += size
