"""Tests for repro.net.pcap."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.packet import Packet
from repro.net.pcap import (
    LINKTYPE_ETHERNET,
    LINKTYPE_USER0,
    MAGIC_MICROS,
    MAGIC_NANOS,
    MAX_RECORD_BYTES,
    PcapError,
    iter_pcap,
    iter_pcap_blocks,
    iter_pcap_buffered,
    read_pcap,
    write_pcap,
)


class TestRoundtrip:
    def test_basic_roundtrip(self, tmp_path):
        path = tmp_path / "t.pcap"
        packets = [
            Packet(b"\x01\x02\x03", timestamp=1.5),
            Packet(b"\x04" * 100, timestamp=2.25),
        ]
        assert write_pcap(path, packets) == 2
        loaded = read_pcap(path)
        assert [p.data for p in loaded] == [p.data for p in packets]
        assert loaded[0].timestamp == pytest.approx(1.5, abs=1e-6)
        assert loaded[1].timestamp == pytest.approx(2.25, abs=1e-6)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.pcap"
        write_pcap(path, [])
        assert read_pcap(path) == []

    def test_snaplen_truncates(self, tmp_path):
        path = tmp_path / "s.pcap"
        write_pcap(path, [Packet(b"\xaa" * 100)], snaplen=10)
        loaded = read_pcap(path)
        assert len(loaded[0].data) == 10

    def test_linktype_written(self, tmp_path):
        path = tmp_path / "l.pcap"
        write_pcap(path, [], linktype=LINKTYPE_USER0)
        with open(path, "rb") as handle:
            header = handle.read(24)
        assert struct.unpack("<I", header[20:24])[0] == LINKTYPE_USER0

    def test_timestamp_micro_rounding(self, tmp_path):
        path = tmp_path / "r.pcap"
        # 0.9999999 rounds to 1000000 µs — must carry into seconds.
        write_pcap(path, [Packet(b"x", timestamp=0.9999999)])
        loaded = read_pcap(path)
        assert loaded[0].timestamp == pytest.approx(1.0, abs=1e-6)

    @given(st.lists(st.binary(min_size=1, max_size=200), max_size=20))
    def test_roundtrip_property(self, tmp_path_factory, payloads):
        path = tmp_path_factory.mktemp("pcap") / "p.pcap"
        packets = [Packet(d, timestamp=float(i)) for i, d in enumerate(payloads)]
        write_pcap(path, packets)
        assert [p.data for p in read_pcap(path)] == payloads


class TestForeignFiles:
    def test_big_endian_file(self, tmp_path):
        path = tmp_path / "be.pcap"
        with open(path, "wb") as handle:
            handle.write(struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1))
            handle.write(struct.pack(">IIII", 10, 500000, 3, 3))
            handle.write(b"abc")
        loaded = read_pcap(path)
        assert loaded[0].data == b"abc"
        assert loaded[0].timestamp == pytest.approx(10.5, abs=1e-6)

    def test_nanosecond_file(self, tmp_path):
        path = tmp_path / "ns.pcap"
        with open(path, "wb") as handle:
            handle.write(struct.pack("<IHHiIII", 0xA1B23C4D, 2, 4, 0, 0, 65535, 1))
            handle.write(struct.pack("<IIII", 1, 500_000_000, 1, 1))
            handle.write(b"z")
        loaded = read_pcap(path)
        assert loaded[0].timestamp == pytest.approx(1.5, abs=1e-9)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\xde\xad\xbe\xef" + b"\x00" * 20)
        with pytest.raises(PcapError):
            read_pcap(path)

    def test_truncated_record(self, tmp_path):
        path = tmp_path / "trunc.pcap"
        write_pcap(path, [Packet(b"abcdef")])
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(PcapError):
            read_pcap(path)

    def test_too_short_for_header(self, tmp_path):
        path = tmp_path / "short.pcap"
        path.write_bytes(b"\xd4")
        with pytest.raises(PcapError):
            list(iter_pcap(path))


class TestWithGeneratedTraffic:
    def test_trace_roundtrips(self, tmp_path, inet_dataset):
        path = tmp_path / "trace.pcap"
        packets = inet_dataset.test_packets[:50]
        write_pcap(path, packets)
        loaded = read_pcap(path)
        assert [p.data for p in loaded] == [p.data for p in packets]


class TestStreamingRead:
    """iter_pcap streams: open handles work and are left open."""

    def test_iter_from_open_handle(self, tmp_path):
        import io

        path = tmp_path / "h.pcap"
        packets = [Packet(b"ab", timestamp=1.0), Packet(b"cd", timestamp=2.0)]
        write_pcap(path, packets)
        stream = io.BytesIO(path.read_bytes())
        loaded = list(iter_pcap(stream))
        assert [p.data for p in loaded] == [b"ab", b"cd"]
        assert not stream.closed  # caller owns the handle

    def test_iter_is_lazy_over_handle(self, tmp_path):
        import io

        path = tmp_path / "lazy.pcap"
        write_pcap(path, [Packet(bytes([i])) for i in range(10)])
        stream = io.BytesIO(path.read_bytes())
        iterator = iter_pcap(stream)
        first = next(iterator)
        assert first.data == b"\x00"
        # only the consumed records have been read off the stream
        assert stream.tell() < len(stream.getvalue())

    def test_path_iteration_closes_file(self, tmp_path):
        path = tmp_path / "p.pcap"
        write_pcap(path, [Packet(b"x")])
        iterator = iter_pcap(path)
        assert [p.data for p in iterator] == [b"x"]

    def test_partial_consumption_bounded(self, tmp_path):
        # consuming one packet from a large file must not materialise it
        path = tmp_path / "big.pcap"
        write_pcap(path, (Packet(b"y" * 64) for __ in range(5000)))
        iterator = iter_pcap(path)
        assert next(iterator).data == b"y" * 64
        iterator.close()


class TestGzipStreams:
    """iter_pcap sniffs gzip magic and decompresses transparently."""

    def _gzip_file(self, tmp_path, packets):
        import gzip
        import io

        raw = io.BytesIO()
        write_pcap(raw, packets)
        path = tmp_path / "c.pcap.gz"
        with gzip.open(path, "wb") as handle:
            handle.write(raw.getvalue())
        return path

    def test_gzip_path_roundtrip(self, tmp_path):
        packets = [Packet(b"ab", timestamp=1.0), Packet(b"cdef", timestamp=2.0)]
        path = self._gzip_file(tmp_path, packets)
        loaded = list(iter_pcap(path))
        assert [p.data for p in loaded] == [b"ab", b"cdef"]
        assert read_pcap(path)[1].timestamp == pytest.approx(2.0)

    def test_gzip_open_handle(self, tmp_path):
        path = self._gzip_file(tmp_path, [Packet(b"xyz")])
        with open(path, "rb") as handle:
            assert [p.data for p in iter_pcap(handle)] == [b"xyz"]
            assert not handle.closed

    def test_gzip_non_seekable_stream(self, tmp_path):
        # magic sniffing must not rely on seek(): wrap in a pipe-like
        # reader exposing read() only.
        import io

        path = self._gzip_file(tmp_path, [Packet(b"pq"), Packet(b"rs")])

        class ReadOnly:
            def __init__(self, data):
                self._stream = io.BytesIO(data)

            def read(self, size=-1):
                return self._stream.read(size)

        stream = ReadOnly(path.read_bytes())
        assert [p.data for p in iter_pcap(stream)] == [b"pq", b"rs"]

    def test_plain_non_seekable_stream(self, tmp_path):
        # the sniffed prefix is replayed for uncompressed streams too
        import io

        raw = io.BytesIO()
        write_pcap(raw, [Packet(b"mn")])

        class ReadOnly:
            def __init__(self, data):
                self._stream = io.BytesIO(data)

            def read(self, size=-1):
                return self._stream.read(size)

        assert [p.data for p in iter_pcap(ReadOnly(raw.getvalue()))] == [b"mn"]

    def test_write_pcap_accepts_handle(self, tmp_path):
        import io

        raw = io.BytesIO()
        write_pcap(raw, [Packet(b"hh", timestamp=3.5)])
        loaded = list(iter_pcap(io.BytesIO(raw.getvalue())))
        assert loaded[0].data == b"hh"
        assert loaded[0].timestamp == pytest.approx(3.5)


class TestCorruptRecordLength:
    """A record longer than the snaplen is rejected before it is read."""

    class _CountingReader:
        """Read-only stream that counts the bytes handed out."""

        def __init__(self, data: bytes):
            import io

            self._stream = io.BytesIO(data)
            self.served = 0

        def read(self, size=-1):
            chunk = self._stream.read(size)
            self.served += len(chunk)
            return chunk

    @staticmethod
    def _corrupt(snaplen: int, bad_len: int, tail: int) -> bytes:
        """One good record, one whose length field says ``bad_len``,
        then ``tail`` bytes of trailing data."""
        header = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, snaplen, 1)
        good = struct.pack("<IIII", 1, 0, 4, 4) + b"good"
        bad = struct.pack("<IIII", 2, 0, bad_len, bad_len) + b"\x00" * tail
        return header + good + bad

    @staticmethod
    def _gzip(data: bytes) -> bytes:
        import gzip

        return gzip.compress(data)

    READERS = {
        "iter_pcap": lambda stream: iter_pcap(stream),
        "buffered": lambda stream: iter_pcap_buffered(stream, block_size=4096),
    }

    @pytest.mark.parametrize("reader", sorted(READERS))
    @pytest.mark.parametrize("compressed", [False, True])
    def test_length_over_snaplen_raises_before_reading(self, reader, compressed):
        data = self._corrupt(snaplen=1500, bad_len=1501, tail=1 << 20)
        if compressed:
            data = self._gzip(data)
        stream = self._CountingReader(data)
        packets = self.READERS[reader](stream)
        assert next(packets).data == b"good"
        with pytest.raises(PcapError, match="snaplen"):
            next(packets)
        # Nowhere near the 1 MiB of trailing data was pulled in.
        assert stream.served < 64 * 1024

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_zero_snaplen_uses_the_fixed_cap(self, reader):
        data = self._corrupt(snaplen=0, bad_len=MAX_RECORD_BYTES + 1, tail=0)
        with pytest.raises(PcapError, match="snaplen"):
            list(self.READERS[reader](self._CountingReader(data)))
        at_cap = self._corrupt(snaplen=0, bad_len=MAX_RECORD_BYTES, tail=MAX_RECORD_BYTES)
        packets = list(self.READERS[reader](self._CountingReader(at_cap)))
        assert len(packets[1].data) == MAX_RECORD_BYTES

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_record_at_snaplen_is_accepted(self, reader):
        data = self._corrupt(snaplen=1500, bad_len=1500, tail=1500)
        packets = list(self.READERS[reader](self._CountingReader(data)))
        assert [len(p.data) for p in packets] == [4, 1500]


class TestReaderProperty:
    """Every reader returns exactly what was written, on any block split."""

    @staticmethod
    def _file(records, *, endian, nanos, snaplen, fault):
        """A pcap of ``records`` ((seconds, fraction, data) triples).

        ``fault`` is ``None``, ``("truncate", cut)`` (drop ``cut`` bytes
        off the last record, leaving at least one) or ``("over", extra)``
        (the last record's length field claims ``extra`` bytes over the
        limit).  Returns the bytes and the records a reader must yield.
        """
        magic = MAGIC_NANOS if nanos else MAGIC_MICROS
        out = [struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, snaplen, 1)]
        for seconds, fraction, data in records:
            out.append(struct.pack(endian + "IIII", seconds, fraction, len(data), len(data)))
            out.append(data)
        good = list(records)
        if fault is not None and records:
            kind, amount = fault
            good = records[:-1]
            if kind == "truncate":
                tail = out[-2] + out[-1]
                del out[-2:]
                out.append(tail[: max(1, len(tail) - amount)])
            else:
                limit = snaplen if 0 < snaplen <= MAX_RECORD_BYTES else MAX_RECORD_BYTES
                seconds, fraction, data = records[-1]
                out[-2] = struct.pack(
                    endian + "IIII", seconds, fraction, limit + amount, limit + amount
                )
        return b"".join(out), good

    @staticmethod
    def _read(reader, data, block_size):
        import io

        stream = io.BytesIO(data)
        if reader == "read_pcap":
            yield from read_pcap(stream)
        elif reader == "iter_pcap":
            yield from iter_pcap(stream)
        elif reader == "buffered":
            yield from iter_pcap_buffered(stream, block_size=block_size)
        else:
            for block in iter_pcap_blocks(stream, block_size=block_size):
                yield from block.packets()

    @given(
        st.data(),
        st.sampled_from(["<", ">"]),
        st.booleans(),
        st.booleans(),
        st.integers(16, 2048),
        st.sampled_from([None, "truncate", "over"]),
    )
    def test_readers_return_what_was_written(
        self, data, endian, nanos, compressed, block_size, fault_kind
    ):
        import gzip

        snaplen = data.draw(st.one_of(st.integers(1, 300), st.sampled_from([0, 65535])))
        cap = min(300, snaplen) if snaplen else 300
        divisor = 1_000_000_000 if nanos else 1_000_000
        payload = st.one_of(
            st.binary(min_size=0, max_size=cap), st.binary(min_size=cap, max_size=cap)
        )
        records = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, 2**32 - 1), st.integers(0, divisor - 1), payload
                ),
                max_size=30,
            )
        )
        fault = None
        if fault_kind is not None and records:
            fault = (fault_kind, data.draw(st.integers(1, 400)))
        blob, good = self._file(
            records, endian=endian, nanos=nanos, snaplen=snaplen, fault=fault
        )
        if compressed:
            blob = gzip.compress(blob, mtime=0)
        expected = [(d, s + f / divisor) for s, f, d in good]
        for reader in ("read_pcap", "iter_pcap", "buffered", "blocks"):
            got = []
            try:
                for packet in self._read(reader, blob, block_size):
                    got.append((packet.data, packet.timestamp))
            except PcapError:
                assert fault is not None, reader
                if reader != "read_pcap":
                    assert got == expected, reader
            else:
                assert fault is None, reader
                assert got == expected, reader
