"""On-disk corpus synthesis: multi-million-packet mixed traces in chunks.

A *corpus* is a directory of standard pcap chunk files plus a JSON
``manifest.json`` describing them — chunk index, per-class packet
counts, and a sha256 content digest per chunk (always over the
*uncompressed* pcap bytes, so compressed and plain builds of the same
spec agree).  Synthesis streams one chunk at a time: packet pools are
drawn from the existing device/attack models (which ride the
PackPlan/FrameEmitter column fast path), mixed at the configured
attack:benign ratio, interleaved by a seeded permutation, re-stamped
with bursty monotone arrivals via :func:`repro.serve.retime`, written,
digested, and dropped — peak memory is a function of ``chunk_packets``,
never of ``n_packets``.

Everything is a pure function of the spec: same :class:`CorpusSpec` ⇒
byte-identical chunk files and manifest, which is what makes corpora
shareable endurance workloads rather than one-off traces.
"""

from __future__ import annotations

import collections
import dataclasses
import gzip
import hashlib
import itertools
import json
import struct
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.datasets import attacks as attacks_mod
from repro.datasets.generator import TraceConfig, _benign_models
from repro.net.packet import Packet
from repro.net.pcap import LINKTYPE_ETHERNET, LINKTYPE_USER0, MAGIC_MICROS
from repro.serve.sources import check_timing

__all__ = [
    "CorpusError",
    "CorpusSpec",
    "ChunkMeta",
    "CorpusManifest",
    "build_corpus",
    "load_manifest",
    "family_registry",
    "MANIFEST_NAME",
    "MANIFEST_FORMAT",
]

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "repro.corpus/1"

_STACK_FAMILIES = {
    "inet": attacks_mod.INET_ATTACKS,
    "industrial": attacks_mod.INDUSTRIAL_ATTACKS,
    "zigbee": attacks_mod.ZIGBEE_ATTACKS,
    "ble": attacks_mod.BLE_ATTACKS,
}

#: Non-IP stacks write DLT_USER0 chunks, like the trace generator.
_STACK_LINKTYPE = {
    "inet": LINKTYPE_ETHERNET,
    "industrial": LINKTYPE_ETHERNET,
    "zigbee": LINKTYPE_USER0,
    "ble": LINKTYPE_USER0,
}


class CorpusError(ValueError):
    """Raised on invalid specs, malformed manifests, or digest mismatches."""


def family_registry() -> Dict[str, type]:
    """Every known attack family, keyed by its label category."""
    known: Dict[str, type] = {}
    for families in _STACK_FAMILIES.values():
        for cls in families:
            known[cls.category] = cls
    for cls in attacks_mod.INET_ATTACKS_EXTENDED + [attacks_mod.Ipv6CoapFlood]:
        known[cls.category] = cls
    return known


@dataclasses.dataclass
class CorpusSpec:
    """Parameters of one corpus — the whole identity of its bytes.

    Attributes:
        stack: protocol stack (``"inet"``, ``"industrial"``,
            ``"zigbee"``, ``"ble"``).
        n_packets: total packets across all chunks.
        chunk_packets: packets per chunk file (the memory ceiling knob);
            the final chunk holds the remainder.
        attack_fraction: fraction of each chunk drawn from attack
            families (split evenly across them); the rest is benign
            device traffic.  The default mirrors volumetric-incident
            captures, where flood traffic rivals the device baseline
            packet-for-packet.
        attack_families: attack label categories to mix in (e.g.
            ``["syn_flood", "port_scan"]``); ``None`` means every family
            registered for the stack.
        n_devices: benign devices per device model.
        rate: offered-load re-stamping rate in pkts/s of stream time.
        burstiness: burst factor for the arrival process (1.0 = Poisson).
        seed: one seed drives pools, mixing, and arrivals; equal specs
            produce byte-identical corpora.
        compress: write gzip chunks (``chunk-*.pcap.gz``); digests stay
            those of the uncompressed bytes.
        window: seconds of model time generated per pool refill.  Wider
            windows amortise per-model call overhead and generate
            measurably faster; they also lengthen benign sessions, so
            the value is part of the spec (it shapes the bytes).
        attack_rate_scale: multiply each family's native packet rate
            (larger ⇒ fewer, denser generation windows; affects only
            how pools are drawn, not the mix ratio).
    """

    stack: str = "inet"
    n_packets: int = 1_000_000
    chunk_packets: int = 200_000
    attack_fraction: float = 0.5
    attack_families: Optional[Sequence[str]] = None
    n_devices: int = 4
    rate: float = 50_000.0
    burstiness: float = 4.0
    seed: int = 7
    compress: bool = False
    window: float = 120.0
    attack_rate_scale: float = 20.0

    def __post_init__(self) -> None:
        if self.stack not in _STACK_FAMILIES:
            raise CorpusError(f"unknown stack {self.stack!r}")
        if self.n_packets < 1:
            raise CorpusError("n_packets must be >= 1")
        if self.chunk_packets < 1:
            raise CorpusError("chunk_packets must be >= 1")
        if not 0.0 <= self.attack_fraction <= 1.0:
            raise CorpusError("attack_fraction must be in [0, 1]")
        check_timing(self.rate, self.burstiness, CorpusError)
        if self.n_devices < 1:
            raise CorpusError("need at least one device")
        if self.window <= 0:
            raise CorpusError("window must be positive")
        if self.attack_rate_scale <= 0:
            raise CorpusError("attack_rate_scale must be positive")
        if self.attack_families is not None:
            self.attack_families = list(self.attack_families)
            known = family_registry()
            for name in self.attack_families:
                if name not in known:
                    raise CorpusError(
                        f"unknown attack family {name!r} "
                        f"(known: {', '.join(sorted(known))})"
                    )

    def resolved_families(self) -> List[type]:
        """The attack model classes this spec mixes in, in order."""
        if self.attack_families is None:
            return list(_STACK_FAMILIES[self.stack])
        known = family_registry()
        return [known[name] for name in self.attack_families]

    @property
    def linktype(self) -> int:
        return _STACK_LINKTYPE[self.stack]

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CorpusSpec":
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - fields
        if unknown:
            raise CorpusError(f"unknown spec fields {sorted(unknown)}")
        return cls(**data)


@dataclasses.dataclass
class ChunkMeta:
    """One chunk's manifest entry."""

    file: str
    packets: int
    bytes: int                      # uncompressed pcap byte size
    digest: str                     # sha256 of the uncompressed pcap bytes
    first_timestamp: float
    last_timestamp: float
    classes: Dict[str, int]

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ChunkMeta":
        return cls(**data)


@dataclasses.dataclass
class CorpusManifest:
    """The corpus index: spec echo plus per-chunk metadata.

    ``root`` is attached by :func:`load_manifest` / :func:`build_corpus`
    so chunk paths resolve; it is not serialised (a corpus directory can
    be moved freely).
    """

    spec: CorpusSpec
    chunks: List[ChunkMeta]
    root: Optional[Path] = None

    @property
    def packets(self) -> int:
        return sum(chunk.packets for chunk in self.chunks)

    @property
    def bytes(self) -> int:
        return sum(chunk.bytes for chunk in self.chunks)

    @property
    def duration(self) -> float:
        return self.chunks[-1].last_timestamp if self.chunks else 0.0

    def class_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for chunk in self.chunks:
            for name, count in chunk.classes.items():
                counts[name] = counts.get(name, 0) + count
        return counts

    def chunk_path(self, chunk: ChunkMeta) -> Path:
        if self.root is None:
            raise CorpusError("manifest has no root directory attached")
        return self.root / chunk.file

    def to_json(self) -> str:
        payload = {
            "format": MANIFEST_FORMAT,
            "spec": self.spec.to_dict(),
            "packets": self.packets,
            "bytes": self.bytes,
            "duration": self.duration,
            "classes": self.class_counts(),
            "chunks": [chunk.to_dict() for chunk in self.chunks],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str, *, root: Optional[Path] = None) -> "CorpusManifest":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"malformed manifest: {exc}") from exc
        if payload.get("format") != MANIFEST_FORMAT:
            raise CorpusError(
                f"unsupported manifest format {payload.get('format')!r}"
            )
        return cls(
            spec=CorpusSpec.from_dict(payload["spec"]),
            chunks=[ChunkMeta.from_dict(c) for c in payload["chunks"]],
            root=root,
        )

    def summary(self) -> str:
        counts = self.class_counts()
        parts = [f"{name}={count}" for name, count in sorted(counts.items())]
        lines = [
            f"corpus    {self.packets:,} packets in {len(self.chunks)} chunks "
            f"({self.bytes / 1e6:,.1f} MB pcap, "
            f"{self.duration:,.1f}s stream time)",
            f"spec      stack={self.spec.stack} seed={self.spec.seed} "
            f"rate={self.spec.rate:,.0f} pkts/s "
            f"burstiness={self.spec.burstiness} "
            f"attack_fraction={self.spec.attack_fraction}"
            + (" compress" if self.spec.compress else ""),
            "classes   " + ", ".join(parts),
        ]
        return "\n".join(lines)


def load_manifest(root: Union[str, Path]) -> CorpusManifest:
    """Load ``manifest.json`` from a corpus directory (or manifest path)."""
    path = Path(root)
    if path.is_dir():
        path = path / MANIFEST_NAME
    if not path.exists():
        raise CorpusError(f"no corpus manifest at {path}")
    return CorpusManifest.from_json(
        path.read_text(encoding="utf-8"), root=path.parent
    )


class _Well:
    """One traffic class's packet supply, refilled a window at a time.

    Draws from a dedicated rng stream, so the packet sequence is a pure
    function of the seed no matter how ``take`` calls are batched into
    chunks — chunking the corpus differently reorders nothing.  The
    buffer is a list consumed by slice, so ``take`` costs one C-level
    copy per refill rather than a Python pop per packet.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        make_window: Callable[[np.random.Generator], List[Packet]],
    ):
        self._rng = rng
        self._make_window = make_window
        self._buffer: List[Packet] = []
        self._offset = 0

    def take(self, n: int) -> List[Packet]:
        out: List[Packet] = []
        dry_windows = 0
        while True:
            available = len(self._buffer) - self._offset
            need = n - len(out)
            if available >= need:
                out.extend(self._buffer[self._offset : self._offset + need])
                self._offset += need
                return out
            if available:
                out.extend(self._buffer[self._offset :])
            window = self._make_window(self._rng)
            if not window:
                dry_windows += 1
                if dry_windows > 1000:
                    raise CorpusError(
                        "traffic model produced no packets in 1000 "
                        "consecutive windows"
                    )
            else:
                dry_windows = 0
            self._buffer = window
            self._offset = 0


def _benign_well(spec: CorpusSpec) -> _Well:
    config = TraceConfig(
        stack=spec.stack,
        duration=spec.window,
        n_devices=spec.n_devices,
        seed=spec.seed,
    )
    models = _benign_models(config)

    def make_window(rng: np.random.Generator) -> List[Packet]:
        packets: List[Packet] = []
        for model in models:
            packets.extend(model.generate(rng, 0.0, spec.window))
        packets.sort(key=lambda p: p.timestamp)
        return packets

    return _Well(np.random.default_rng([spec.seed, 0]), make_window)


def _attack_well(spec: CorpusSpec, family: type, index: int) -> _Well:
    model = family(index)
    model.rate *= spec.attack_rate_scale

    def make_window(rng: np.random.Generator) -> List[Packet]:
        return sorted(
            model.generate(rng, 0.0, spec.window), key=lambda p: p.timestamp
        )

    return _Well(np.random.default_rng([spec.seed, 1 + index]), make_window)


def _chunk_sizes(spec: CorpusSpec) -> List[int]:
    full, remainder = divmod(spec.n_packets, spec.chunk_packets)
    return [spec.chunk_packets] * full + ([remainder] if remainder else [])


def _class_targets(spec: CorpusSpec, chunk_n: int, n_families: int) -> Tuple[int, List[int]]:
    """(benign count, per-family attack counts) for one chunk."""
    if n_families == 0 or spec.attack_fraction == 0.0:
        return chunk_n, [0] * n_families
    n_attack = min(chunk_n, int(round(chunk_n * spec.attack_fraction)))
    base, extra = divmod(n_attack, n_families)
    per_family = [base + (1 if i < extra else 0) for i in range(n_families)]
    return chunk_n - n_attack, per_family


def _burst_times(
    rng: np.random.Generator,
    n: int,
    *,
    rate: float,
    burstiness: float,
    start: float,
) -> np.ndarray:
    """``n`` bursty monotone arrival stamps, strictly after ``start``.

    The vectorised twin of :func:`repro.serve.retime`'s arrival process:
    burst sizes are geometric with mean ``burstiness``, bursts are
    spaced exponentially so the long-run rate is ``rate``, and every
    packet of a burst shares its burst's timestamp.
    """
    if n == 0:
        return np.empty(0, dtype=np.float64)
    parts: List[np.ndarray] = []
    total = 0
    while total < n:
        need = max(64, int((n - total) / burstiness) + 8)
        draw = rng.geometric(1.0 / burstiness, size=need)
        parts.append(draw)
        total += int(draw.sum())
    sizes = np.concatenate(parts) if len(parts) > 1 else parts[0]
    n_bursts = int(np.searchsorted(np.cumsum(sizes), n, side="left")) + 1
    sizes = sizes[:n_bursts]
    gaps = rng.exponential(burstiness / rate, size=n_bursts)
    return np.repeat(start + np.cumsum(gaps), sizes)[:n]


_SNAPLEN = 65535


def _serialize_pcap(
    payloads: Sequence[bytes], times: np.ndarray, *, linktype: int
) -> bytes:
    """Column-serialise one chunk to little-endian µs pcap bytes.

    Record headers are built as one ``(n, 4)`` uint32 array and the file
    assembled in a single join — the write-side analogue of the PackPlan
    column path, ~10x over packing records one at a time.
    """
    n = len(payloads)
    seconds = np.floor(times)
    micros = np.round((times - seconds) * 1e6)
    rolled = micros >= 1e6  # float rounding up to a whole second
    if rolled.any():
        seconds = seconds + rolled
        micros = micros - rolled * 1e6
    lengths = np.fromiter(map(len, payloads), dtype=np.int64, count=n)
    if n and int(lengths.max()) > _SNAPLEN:
        raise CorpusError(f"packet exceeds pcap snaplen {_SNAPLEN}")
    headers = np.empty((n, 4), dtype="<u4")
    headers[:, 0] = seconds
    headers[:, 1] = micros
    headers[:, 2] = lengths
    headers[:, 3] = lengths
    view = memoryview(headers.tobytes())
    global_header = struct.pack(
        "<IHHiIII", MAGIC_MICROS, 2, 4, 0, 0, _SNAPLEN, linktype
    )
    # Interleave record headers and payloads entirely in C: slice views
    # over the header block, then one join over a chained iterator.
    header_slices = [view[16 * i : 16 * (i + 1)] for i in range(n)]
    return global_header + b"".join(
        itertools.chain.from_iterable(zip(header_slices, payloads))
    )


def _write_chunk(path: Path, blob: bytes, *, compress: bool) -> str:
    """Write one serialised chunk; returns its sha256 (uncompressed bytes)."""
    digest = hashlib.sha256(blob).hexdigest()
    with open(path, "wb") as raw:
        if compress:
            # filename="" and mtime=0 keep the gzip header free of
            # environment state — equal content ⇒ equal file bytes.
            with gzip.GzipFile(
                filename="", fileobj=raw, mode="wb", mtime=0
            ) as zipped:
                zipped.write(blob)
        else:
            raw.write(blob)
    return digest


def build_corpus(
    spec: CorpusSpec,
    out_dir: Union[str, Path],
    *,
    force: bool = False,
    progress: Optional[Callable[[int, int, ChunkMeta], None]] = None,
) -> CorpusManifest:
    """Synthesize a corpus to ``out_dir``; returns the written manifest.

    Streams chunk-at-a-time: at no point is more than one chunk of
    packets resident, so multi-million-packet corpora build in the same
    memory as a single chunk.  Refuses to overwrite an existing corpus
    unless ``force`` is set.

    Args:
        progress: optional ``(chunk_index, n_chunks, meta)`` callback
            fired after each chunk lands on disk (CLI progress, RSS
            sampling in tests).
    """
    out = Path(out_dir)
    manifest_path = out / MANIFEST_NAME
    if manifest_path.exists() and not force:
        raise CorpusError(
            f"corpus already exists at {out} (use force to rebuild)"
        )
    out.mkdir(parents=True, exist_ok=True)

    registry = obs.registry()
    packets_total = registry.counter(
        "corpus_build_packets_total", help="Packets synthesized to corpus chunks"
    )
    chunks_total = registry.counter(
        "corpus_build_chunks_total", help="Corpus chunk files written"
    )
    chunk_seconds = registry.histogram(
        "corpus_chunk_build_seconds",
        unit="s",
        help="Wall-clock seconds to synthesize + write one corpus chunk",
    )

    families = spec.resolved_families()
    if spec.attack_fraction > 0.0 and not families:
        raise CorpusError("attack_fraction > 0 with no attack families")
    benign = _benign_well(spec)
    wells = [
        _attack_well(spec, family, index)
        for index, family in enumerate(families)
    ]

    sizes = _chunk_sizes(spec)
    suffix = ".pcap.gz" if spec.compress else ".pcap"
    chunks: List[ChunkMeta] = []
    clock = 0.0
    with registry.span("corpus.build"):
        for index, size in enumerate(sizes):
            chunk_start = time.perf_counter()
            n_benign, per_family = _class_targets(spec, size, len(families))
            pool = benign.take(n_benign)
            # Per-class counts are exact by construction (each well
            # yields a single label category), so no counting pass.
            counts = collections.Counter({"benign": n_benign} if n_benign else {})
            for well, family, count in zip(wells, families, per_family):
                pool.extend(well.take(count))
                counts[family.category] += count
            mix_rng = np.random.default_rng([spec.seed, 1000, index])
            order = mix_rng.permutation(len(pool))
            times = _burst_times(
                np.random.default_rng([spec.seed, 2000, index]),
                len(pool),
                rate=spec.rate,
                burstiness=spec.burstiness,
                start=clock,
            )
            payloads = [pool[i].data for i in order]
            blob = _serialize_pcap(payloads, times, linktype=spec.linktype)
            clock = float(times[-1])
            name = f"chunk-{index:05d}{suffix}"
            digest = _write_chunk(out / name, blob, compress=spec.compress)
            meta = ChunkMeta(
                file=name,
                packets=size,
                bytes=len(blob),
                digest=digest,
                first_timestamp=float(times[0]),
                last_timestamp=float(times[-1]),
                classes={k: v for k, v in sorted(counts.items()) if v},
            )
            chunks.append(meta)
            packets_total.inc(size)
            chunks_total.inc()
            chunk_seconds.observe(time.perf_counter() - chunk_start)
            if progress is not None:
                progress(index, len(sizes), meta)

    manifest = CorpusManifest(spec=spec, chunks=chunks, root=out)
    manifest_path.write_text(manifest.to_json(), encoding="utf-8")
    return manifest
