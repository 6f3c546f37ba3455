"""Tests for repro.net.packet."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.packet import BENIGN, Label, Packet, truncate


class TestLabel:
    def test_default_is_benign(self):
        assert Label().category == BENIGN
        assert not Label().is_attack

    def test_attack_flag(self):
        assert Label("syn_flood").is_attack


class TestPacket:
    def test_len(self):
        assert len(Packet(b"abc")) == 3

    def test_byte_at_within(self):
        assert Packet(b"\x01\x02").byte_at(1) == 2

    def test_byte_at_past_end_reads_zero(self):
        # P4 zero-fill convention for short packets.
        assert Packet(b"\x01").byte_at(5) == 0

    def test_byte_at_negative_raises(self):
        with pytest.raises(IndexError):
            Packet(b"\x01").byte_at(-1)

    def test_bytes_at_mixed(self):
        assert Packet(b"\x0a\x0b").bytes_at((0, 1, 9)) == (10, 11, 0)

    def test_batch_keys_matches_bytes_at(self):
        # The batch extractor shares the zero-fill contract at batch
        # granularity: row i == packets[i].bytes_at(offsets), including
        # short and empty packets.
        offsets = (0, 3, 17)
        packets = [
            Packet(b""),
            Packet(b"\x01"),
            Packet(b"\x01\x02\x03\x04"),
            Packet(bytes(range(32))),
        ]
        matrix = Packet.batch_keys(packets, offsets)
        assert matrix.shape == (4, 3)
        assert matrix.dtype == np.uint8
        for row, packet in zip(matrix, packets):
            assert tuple(int(b) for b in row) == packet.bytes_at(offsets)

    def test_batch_keys_short_packets_read_zero(self):
        matrix = Packet.batch_keys([Packet(b"\xff"), Packet(b"")], (0, 10))
        assert matrix.tolist() == [[0xFF, 0], [0, 0]]

    def test_batch_keys_empty_trace(self):
        matrix = Packet.batch_keys([], (0, 1))
        assert matrix.shape == (0, 2)
        assert matrix.dtype == np.uint8

    def test_batch_keys_negative_offset_raises(self):
        with pytest.raises(IndexError):
            Packet.batch_keys([Packet(b"x")], (0, -1))

    def test_batch_keys_empty_offsets_raises(self):
        with pytest.raises(ValueError):
            Packet.batch_keys([Packet(b"x")], ())

    def test_batch_keys_repeated_offsets(self):
        matrix = Packet.batch_keys([Packet(b"\x0a\x0b")], (1, 1, 0))
        assert matrix.tolist() == [[0x0B, 0x0B, 0x0A]]

    @given(
        st.lists(st.binary(min_size=0, max_size=64), min_size=0, max_size=20),
        st.lists(st.integers(min_value=0, max_value=80), min_size=1, max_size=6),
    )
    def test_batch_keys_rows_match_bytes_at_property(self, payloads, offsets):
        packets = [Packet(p) for p in payloads]
        matrix = Packet.batch_keys(packets, offsets)
        assert matrix.shape == (len(packets), len(offsets))
        assert matrix.dtype == np.uint8
        for row, packet in zip(matrix.tolist(), packets):
            assert tuple(row) == packet.bytes_at(tuple(offsets))

    def test_with_label(self):
        packet = Packet(b"x").with_label("udp_flood", "dev-1")
        assert packet.label.category == "udp_flood"
        assert packet.label.device == "dev-1"
        assert packet.data == b"x"

    def test_immutability(self):
        packet = Packet(b"x")
        with pytest.raises(Exception):
            packet.data = b"y"  # type: ignore[misc]

    def test_summary_contains_label(self):
        assert "syn_flood" in Packet(b"x").with_label("syn_flood").summary()

    def test_equality_ignores_meta(self):
        a = Packet(b"x", meta={"k": {"v": 1}})
        b = Packet(b"x")
        assert a == b


class TestTruncate:
    def test_truncates_long_packet(self):
        assert truncate(Packet(b"abcdef"), 3).data == b"abc"

    def test_keeps_short_packet(self):
        packet = Packet(b"ab", timestamp=1.5)
        assert truncate(packet, 10) is packet

    def test_negative_snap_rejected(self):
        with pytest.raises(ValueError):
            truncate(Packet(b"ab"), -1)

    def test_preserves_label_and_time(self):
        packet = Packet(b"abcdef", timestamp=2.0).with_label("x")
        cut = truncate(packet, 2)
        assert cut.timestamp == 2.0 and cut.label.category == "x"
