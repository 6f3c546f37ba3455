"""Pluggable packet sources for the streaming gateway.

A *source* is simply an iterable of :class:`~repro.net.packet.Packet`
whose timestamps are non-decreasing — the timestamp **is** the arrival
clock the gateway runs on (stream time).  A packet list or tuple is the
in-memory source; two classes cover the other serving scenarios:

* :class:`SyntheticSource` — a seeded synthetic stream built on
  :func:`repro.datasets.generator.generate_trace`, re-timed to a
  configurable rate with tunable burstiness;
* :class:`PcapSource` — a *streaming* pcap reader over
  :func:`repro.net.pcap.iter_pcap_blocks`; the capture is never
  materialised, so arbitrarily large files (or loops of a small one)
  feed the gateway in bounded memory.

Both, and :class:`~repro.corpus.CorpusSource`, share one re-timing body,
:class:`ReplaySource`: it owns ``rate``, ``burstiness``, ``seed`` and
``loop``, refuses a bad value as it is built (:func:`check_timing`, the
check :func:`retime` runs), and defines ``__iter__`` and
``frame_blocks()`` once; a subclass supplies only its records.  On the
recorded clock ``frame_blocks()`` hands over the
:class:`~repro.net.frames.FrameBlock`\\ s a disk source read, without a
``Packet`` per record; re-timed, the re-timed packets are cut into large
blocks (:func:`~repro.net.frames.pack_blocks`).  Reading one block
ahead is not observable on a stream-time replay.  The gateway packs
any other iterable (a wall-clock-paced source, a bare iterator) into
blocks as it reads it, never reading past a packet that triggers work.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Type, Union

import numpy as np

from repro.net.frames import FrameBlock, block_packets, pack_blocks
from repro.net.packet import Packet

__all__ = ["PcapSource", "ReplaySource", "SyntheticSource", "check_timing", "retime"]

_PACKET_NEW = Packet.__new__
_SETATTR = object.__setattr__


def check_timing(
    rate: Optional[float], burstiness: float, error: Type[ValueError] = ValueError
) -> None:
    """Refuse an arrival setting :func:`retime` cannot honour, as ``error``.

    ``rate=None`` (keep the recorded clock) passes.
    """
    if rate is not None and rate <= 0:
        raise error("rate must be positive")
    if burstiness < 1.0:
        raise error("burstiness must be >= 1.0")


def retime(
    packets: Iterable[Packet],
    *,
    rate: float,
    burstiness: float = 1.0,
    seed: int = 0,
    start: float = 0.0,
) -> Iterator[Packet]:
    """Re-stamp a packet stream to an offered load of ``rate`` pkts/s.

    Inter-arrival gaps are drawn per *burst*: burst sizes are geometric
    with mean ``burstiness`` and bursts are spaced exponentially so the
    long-run mean rate is preserved.  ``burstiness=1.0`` degenerates to
    a plain Poisson arrival process; larger values concentrate the same
    offered load into tighter clumps (the regime that stresses the
    batcher and the bounded queues).

    The input may be any iterable — re-timing is itself streaming.
    Each copy shares the input's ``data``, ``label`` and ``meta``
    objects, as :func:`dataclasses.replace` would.
    """
    check_timing(rate, burstiness)
    rng = np.random.default_rng(seed)
    now = float(start)
    remaining_in_burst = 0
    # Packet() without re-running the dataclass __init__ (see FrameBlock).
    packet_new, setattr_, packet_cls = _PACKET_NEW, _SETATTR, Packet
    for packet in packets:
        if remaining_in_burst <= 0:
            # Mean gap between bursts is burstiness/rate, so bursts of
            # mean size `burstiness` keep the overall rate at `rate`.
            now += float(rng.exponential(burstiness / rate))
            remaining_in_burst = int(rng.geometric(1.0 / burstiness))
        remaining_in_burst -= 1
        copy = packet_new(packet_cls)
        setattr_(copy, "data", packet.data)
        setattr_(copy, "timestamp", now)
        setattr_(copy, "label", packet.label)
        setattr_(copy, "meta", packet.meta)
        yield copy


class ReplaySource:
    """One body for replaying a stored stream, on its own clock or re-timed.

    Owns the arrival settings and checks them where they are set:
    ``rate`` (``None`` keeps the recorded clock), ``burstiness``,
    ``seed`` and ``loop``.  A subclass supplies its records through one
    of two hooks: a disk source overrides :meth:`_blocks` (its frame
    blocks on the recorded clock, ``loop`` times over), an in-memory one
    overrides :meth:`_packets`.  Errors are raised as ``error``.
    """

    error = ValueError

    def __init__(
        self,
        *,
        rate: Optional[float],
        burstiness: float,
        seed: int,
        loop: int = 1,
    ):
        check_timing(rate, burstiness, self.error)
        if loop < 1:
            raise self.error("loop must be >= 1")
        if loop > 1 and rate is None:
            raise self.error("looping requires rate re-timing")
        self._rate = rate
        self._burstiness = burstiness
        self._seed = seed
        self._loop = loop

    def _blocks(self) -> Iterator[FrameBlock]:
        raise NotImplementedError

    def _packets(self) -> Iterable[Packet]:
        return block_packets(self._blocks())

    def frame_blocks(self) -> Iterator[FrameBlock]:
        """The packets of :meth:`__iter__` as frame blocks: the blocks
        read on the recorded clock, or large blocks of the re-timed
        packets."""
        if self._rate is None:
            return self._blocks()
        return pack_blocks(self)

    def __iter__(self) -> Iterator[Packet]:
        packets = self._packets()
        if self._rate is None:
            return packets
        return retime(
            packets,
            rate=self._rate,
            burstiness=self._burstiness,
            seed=self._seed,
        )


class SyntheticSource(ReplaySource):
    """Seeded synthetic traffic re-timed to a configurable offered load.

    Generates one labelled trace via
    :func:`repro.datasets.generator.generate_trace` (device mix plus
    attack windows, byte-deterministic under ``seed``) and replays it at
    ``rate`` pkts/s.  Generation happens once in the constructor so a
    timed soak measures the gateway, not the generator; re-timing is
    lazy, so each iteration draws the same stamps without holding a
    re-timed copy of the stream.

    Args:
        rate: offered load in packets per second.
        n_packets: stream length; the base trace is tiled if shorter.
        stack: protocol stack for the generated trace.
        burstiness: arrival burst factor (1.0 = Poisson).
        seed: one seed drives both trace bytes and arrival process.
    """

    def __init__(
        self,
        *,
        rate: float,
        n_packets: int = 50_000,
        stack: str = "inet",
        burstiness: float = 1.0,
        seed: int = 7,
        duration: float = 30.0,
        n_devices: int = 3,
    ):
        from repro.datasets import TraceConfig, generate_trace

        super().__init__(rate=rate, burstiness=burstiness, seed=seed)
        if n_packets < 1:
            raise ValueError("n_packets must be >= 1")
        base = generate_trace(
            TraceConfig(
                stack=stack, duration=duration, n_devices=n_devices, seed=seed
            )
        )
        if not base:
            raise ValueError("generated base trace is empty")
        self._trace = (base * (n_packets // len(base) + 1))[:n_packets]

    def __len__(self) -> int:
        return len(self._trace)

    def _packets(self) -> List[Packet]:
        return self._trace


class PcapSource(ReplaySource):
    """Stream packets out of a pcap capture without materialising it.

    Args:
        path: pcap file to read (either byte order, µs or ns stamps).
        rate: when set, ignore capture timestamps and re-time to this
            offered load; ``None`` keeps the capture's own arrival
            clock.
        loop: read the file this many times end-to-end (re-timing is
            then required so stream time keeps advancing).
        burstiness: burst factor for re-timing.
        seed: RNG seed for the arrival process.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        rate: Optional[float] = None,
        loop: int = 1,
        burstiness: float = 1.0,
        seed: int = 0,
    ):
        super().__init__(rate=rate, burstiness=burstiness, seed=seed, loop=loop)
        self.path = Path(path)

    def _blocks(self) -> Iterator[FrameBlock]:
        from repro.net.pcap import iter_pcap_blocks

        for __ in range(self._loop):
            with open(self.path, "rb") as handle:
                yield from iter_pcap_blocks(handle)
