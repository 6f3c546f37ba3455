"""Tests for repro.net.bytesutil."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.bytesutil import (
    bytes_to_int,
    bytes_to_ipv4,
    bytes_to_mac,
    crc16_ccitt,
    get_bits,
    hexdump,
    int_to_bytes,
    ipv4_to_bytes,
    iter_prefix_ranges,
    mac_to_bytes,
    ones_complement_checksum,
    set_bits,
    xor_bytes,
)
from repro.net.frames import FrameBlock
from repro.net.packet import Packet


class TestIntPacking:
    def test_roundtrip_big_endian(self):
        assert bytes_to_int(int_to_bytes(0x1234, 2)) == 0x1234

    def test_length_respected(self):
        assert int_to_bytes(1, 4) == b"\x00\x00\x00\x01"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            int_to_bytes(-1, 2)

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            int_to_bytes(256, 1)

    def test_little_endian(self):
        assert int_to_bytes(0x1234, 2, "little") == b"\x34\x12"

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_roundtrip_property(self, value):
        assert bytes_to_int(int_to_bytes(value, 4)) == value


class TestBits:
    def test_get_bits_extracts_field(self):
        assert get_bits(0b1011_0110, 5, 2) == 0b1101

    def test_get_bits_lsb(self):
        assert get_bits(0b1, 0, 0) == 1

    def test_get_bits_invalid_order(self):
        with pytest.raises(ValueError):
            get_bits(0, 1, 2)

    def test_set_bits_replaces_field(self):
        assert set_bits(0b0000_0000, 5, 2, 0b1101) == 0b0011_0100

    def test_set_bits_field_too_wide(self):
        with pytest.raises(ValueError):
            set_bits(0, 2, 1, 0b100)

    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=7),
    )
    def test_set_then_get_property(self, value, a, b):
        high, low = max(a, b), min(a, b)
        field = value & ((1 << (high - low + 1)) - 1)
        assert get_bits(set_bits(0, high, low, field), high, low) == field


class TestChecksums:
    def test_rfc1071_known_vector(self):
        # Example from RFC 1071 discussions: checksum of this data is 0x220d.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert ones_complement_checksum(data) == 0x220D

    def test_checksum_of_message_plus_checksum_is_zero(self):
        data = b"\x45\x00\x00\x28\xab\xcd\x00\x00\x40\x06"
        checksum = ones_complement_checksum(data)
        padded = data + int_to_bytes(checksum, 2)
        assert ones_complement_checksum(padded) == 0

    def test_odd_length_padded(self):
        assert ones_complement_checksum(b"\xff") == ones_complement_checksum(b"\xff\x00")

    def test_crc16_known_vector(self):
        # CRC-16/CCITT-FALSE("123456789") = 0x29B1 (standard check value).
        assert crc16_ccitt(b"123456789") == 0x29B1

    def test_crc16_detects_corruption(self):
        data = b"hello world"
        assert crc16_ccitt(data) != crc16_ccitt(b"hellp world")


class TestXor:
    def test_xor_basic(self):
        assert xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"

    def test_xor_length_mismatch(self):
        with pytest.raises(ValueError):
            xor_bytes(b"\x00", b"\x00\x00")

    @given(st.binary(min_size=1, max_size=64))
    def test_xor_self_inverse(self, data):
        key = bytes(reversed(data))
        assert xor_bytes(xor_bytes(data, key), key) == data


class TestBatchBytesAt:
    """Batch byte extraction, which :meth:`FrameBlock.bytes_at` does for
    every batch: one ``(n, k)`` uint8 row per payload, zero-filled past
    the end of a short payload, as the scalar byte read."""

    @staticmethod
    def block_bytes_at(payloads, offsets):
        block = FrameBlock.of([Packet(p) for p in payloads])
        return block.bytes_at(np.arange(len(payloads)), offsets)

    def test_matches_scalar_extraction(self):
        payloads = [b"", b"\x01", b"\x01\x02\x03", bytes(range(40))]
        offsets = (0, 2, 33)
        matrix = self.block_bytes_at(payloads, offsets)
        assert matrix.shape == (4, 3)
        assert matrix.dtype == np.uint8
        for row, payload in zip(matrix, payloads):
            expected = tuple(
                payload[o] if o < len(payload) else 0 for o in offsets
            )
            assert tuple(int(b) for b in row) == expected

    def test_short_payloads_zero_filled(self):
        matrix = self.block_bytes_at([b"\xff", b""], (0, 7))
        assert matrix.tolist() == [[0xFF, 0], [0, 0]]

    def test_empty_payload_list(self):
        matrix = self.block_bytes_at([], (0, 1, 2))
        assert matrix.shape == (0, 3)
        assert matrix.dtype == np.uint8

    def test_negative_offset_rejected(self):
        with pytest.raises(IndexError):
            self.block_bytes_at([b"x"], (0, -2))


class TestAddressFormats:
    def test_mac_roundtrip(self):
        assert bytes_to_mac(mac_to_bytes("02:00:0a:ff:00:01")) == "02:00:0a:ff:00:01"

    def test_mac_invalid(self):
        with pytest.raises(ValueError):
            mac_to_bytes("02:00:0a:ff:00")

    def test_ipv4_roundtrip(self):
        assert bytes_to_ipv4(ipv4_to_bytes("192.168.1.10")) == "192.168.1.10"

    def test_ipv4_out_of_range(self):
        with pytest.raises(ValueError):
            ipv4_to_bytes("300.0.0.1")

    def test_ipv4_wrong_parts(self):
        with pytest.raises(ValueError):
            ipv4_to_bytes("10.0.0")


class TestHexdump:
    def test_basic_shape(self):
        dump = hexdump(bytes(range(32)))
        lines = dump.split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("00000000")
        assert lines[1].startswith("00000010")

    def test_ascii_column(self):
        dump = hexdump(b"AB\x00")
        assert dump.endswith("AB.")


class TestPrefixRanges:
    def test_full_range_is_one_wildcard(self):
        assert list(iter_prefix_ranges(0, 255, 8)) == [(0, 0)]

    def test_exact_value(self):
        assert list(iter_prefix_ranges(7, 7, 8)) == [(7, 255)]

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            list(iter_prefix_ranges(5, 4, 8))

    def test_range_too_wide_rejected(self):
        with pytest.raises(ValueError):
            list(iter_prefix_ranges(0, 256, 8))

    def test_known_decomposition(self):
        # [1, 6] → 1/8, 2-3 (2/0xFE), 4-5 (4/0xFE), 6/0xFF
        pairs = list(iter_prefix_ranges(1, 6, 8))
        assert (1, 255) in pairs
        assert (6, 255) in pairs
        assert len(pairs) == 4

    @staticmethod
    def _covered(pairs, width):
        values = set()
        for value, mask in pairs:
            for x in range(1 << width):
                if (x & mask) == value:
                    values.add(x)
        return values

    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
    )
    def test_cover_exactly_property(self, a, b):
        lo, hi = min(a, b), max(a, b)
        pairs = list(iter_prefix_ranges(lo, hi, 8))
        assert self._covered(pairs, 8) == set(range(lo, hi + 1))

    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
    )
    def test_disjoint_property(self, a, b):
        lo, hi = min(a, b), max(a, b)
        pairs = list(iter_prefix_ranges(lo, hi, 8))
        total = 0
        for value, mask in pairs:
            total += 1 << (8 - bin(mask).count("1"))
        assert total == hi - lo + 1  # disjoint blocks sum to the range size

    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
    )
    def test_entry_count_bound_property(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert len(list(iter_prefix_ranges(lo, hi, 8))) <= 2 * 8 - 2 + 1
