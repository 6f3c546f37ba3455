"""Bounded-memory corpus replay: chain chunks, verify digests in flight.

:class:`CorpusSource` is a gateway source (an iterable of packets with
non-decreasing timestamps) over an on-disk corpus.  It chains the pcap
block reader (:func:`repro.net.pcap.iter_pcap_blocks`) across chunk
files, so memory is bounded by one read block (64 KB) plus one record
regardless of corpus size, and — unless told not to — re-computes each
chunk's sha256 over the uncompressed byte stream *as it reads*, raising
:class:`~repro.corpus.build.CorpusError` the moment a chunk disagrees
with its manifest digest.  Verification is therefore free of a second
read pass and adds one hash update per block, not per record.

The source also offers its packets as frame blocks
(:meth:`CorpusSource.frame_blocks`), which the gateway serves whole: on
the recorded clock (no ``rate``) the blocks it read, without a packet
object per record; re-timed, large blocks of the re-timed packets.

Re-stamping to a fresh offered load wraps the whole chained stream in
:func:`repro.serve.retime`, which is itself a streaming generator — a
chunk is never materialised to be re-timed.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Callable, Iterator, Optional, Union

from repro import obs
from repro.corpus.build import ChunkMeta, CorpusError, CorpusManifest, load_manifest
from repro.net.frames import FrameBlock, block_packets, pack_blocks
from repro.net.packet import Packet
from repro.net.pcap import iter_pcap_blocks, open_pcap_stream
from repro.serve.sources import retime

__all__ = ["CorpusSource"]


class _HashingReader:
    """Read-through wrapper computing sha256 of everything read."""

    def __init__(self, handle):
        self._handle = handle
        self.sha = hashlib.sha256()

    def read(self, size: int = -1) -> bytes:
        data = self._handle.read(size)
        self.sha.update(data)
        return data


class CorpusSource:
    """Stream an on-disk corpus through the gateway in bounded memory.

    Args:
        root: corpus directory (or its ``manifest.json`` path).
        rate: when set, ignore corpus timestamps and re-time the stream
            to this offered load (pkts/s) via :func:`repro.serve.retime`;
            ``None`` keeps the corpus's own arrival clock.
        burstiness: burst factor for re-timing.
        seed: RNG seed for the re-timing arrival process.
        verify: re-compute each chunk's sha256 while streaming and raise
            :class:`CorpusError` on mismatch (also checks record
            counts).  Costs one hash update per read; on by default.
        loop: replay the corpus this many times end-to-end (requires
            ``rate``, so stream time keeps advancing).
        on_chunk: optional ``(chunk_index, meta)`` callback fired after
            each chunk is fully streamed — the endurance harness samples
            RSS here, at chunk granularity, off the per-packet hot path.
    """

    def __init__(
        self,
        root: Union[str, Path, CorpusManifest],
        *,
        rate: Optional[float] = None,
        burstiness: float = 1.0,
        seed: int = 0,
        verify: bool = True,
        loop: int = 1,
        on_chunk: Optional[Callable[[int, ChunkMeta], None]] = None,
    ):
        if loop < 1:
            raise CorpusError("loop must be >= 1")
        if loop > 1 and rate is None:
            raise CorpusError("looping a corpus requires rate re-timing")
        if isinstance(root, CorpusManifest):
            self.manifest = root
        else:
            self.manifest = load_manifest(root)
        if not self.manifest.chunks:
            raise CorpusError("corpus manifest lists no chunks")
        self._rate = rate
        self._burstiness = burstiness
        self._seed = seed
        self._verify = verify
        self._loop = loop
        self._on_chunk = on_chunk
        #: Chunks whose digests verified during the latest iteration.
        self.chunks_verified = 0

    def __len__(self) -> int:
        return self.manifest.packets * self._loop

    def _stream_chunk(self, meta: ChunkMeta, counters) -> Iterator[FrameBlock]:
        path = self.manifest.chunk_path(meta)
        with open(path, "rb") as raw:
            if not self._verify:
                yield from iter_pcap_blocks(raw)
                return
            # hash sits between the gzip layer and the parser, so the
            # digest always covers the *uncompressed* chunk bytes; the
            # block reader above it hashes a few large reads per chunk
            # instead of two tiny ones per record
            reader = _HashingReader(open_pcap_stream(raw))
            yield from iter_pcap_blocks(reader)
            # the parser consumed the stream to EOF, so the digest covers
            # the complete uncompressed chunk content — record headers
            # included, which is why no separate record count is kept
            digest = reader.sha.hexdigest()
            if digest != meta.digest:
                counters["failures"].inc()
                raise CorpusError(
                    f"digest mismatch in {meta.file}: "
                    f"manifest {meta.digest[:12]}…, stream {digest[:12]}…"
                )
            self.chunks_verified += 1

    def _blocks(self) -> Iterator[FrameBlock]:
        registry = obs.registry()
        counters = {
            "chunks": registry.counter(
                "corpus_replay_chunks_total",
                help="Corpus chunks fully streamed through a source",
            ),
            "packets": registry.counter(
                "corpus_replay_packets_total",
                help="Packets replayed from on-disk corpora",
            ),
            "failures": registry.counter(
                "corpus_digest_failures_total",
                help="Corpus chunks whose content digest did not verify",
            ),
        }
        self.chunks_verified = 0
        for __ in range(self._loop):
            for index, meta in enumerate(self.manifest.chunks):
                yield from self._stream_chunk(meta, counters)
                counters["chunks"].inc()
                counters["packets"].inc(meta.packets)
                if self._on_chunk is not None:
                    self._on_chunk(index, meta)

    def frame_blocks(self) -> Iterator[FrameBlock]:
        """The packets of :meth:`__iter__` as frame blocks: the blocks
        read from the chunks, or large blocks of the re-timed packets."""
        if self._rate is None:
            return self._blocks()
        return pack_blocks(self)

    def __iter__(self) -> Iterator[Packet]:
        packets = block_packets(self._blocks())
        if self._rate is None:
            return packets
        return retime(
            packets,
            rate=self._rate,
            burstiness=self._burstiness,
            seed=self._seed,
        )
