"""Pluggable packet sources for the streaming gateway.

A *source* is simply an iterable of :class:`~repro.net.packet.Packet`
whose timestamps are non-decreasing — the timestamp **is** the arrival
clock the gateway runs on (stream time).  Three implementations cover
the serving scenarios:

* :class:`IterableSource` — wrap any in-process packet sequence
  (tests, pre-generated traces), optionally re-timed to an offered
  load;
* :class:`SyntheticSource` — a seeded synthetic stream built on
  :func:`repro.datasets.generator.generate_trace`, re-timed to a
  configurable rate with tunable burstiness;
* :class:`PcapSource` — a *streaming* pcap reader over
  :func:`repro.net.pcap.iter_pcap_blocks`; the capture is never
  materialised, so arbitrarily large files (or loops of a small one)
  feed the gateway in bounded memory.

A source may also offer ``frame_blocks()``: an iterator of
:class:`~repro.net.frames.FrameBlock`\\ s carrying the same records and
stamps, or ``None``.  :class:`PcapSource` (and
:class:`~repro.corpus.CorpusSource`) offer blocks when they replay the
recorded clock; the gateway then serves whole blocks without a
``Packet`` per record.  Anything live or re-timed stays per packet.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from repro.net.frames import FrameBlock, block_packets
from repro.net.packet import Packet

__all__ = ["IterableSource", "PcapSource", "SyntheticSource", "retime"]


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
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    if burstiness < 1.0:
        raise ValueError("burstiness must be >= 1.0")
    rng = np.random.default_rng(seed)
    now = float(start)
    remaining_in_burst = 0
    for packet in packets:
        if remaining_in_burst <= 0:
            # Mean gap between bursts is burstiness/rate, so bursts of
            # mean size `burstiness` keep the overall rate at `rate`.
            now += float(rng.exponential(burstiness / rate))
            remaining_in_burst = int(rng.geometric(1.0 / burstiness))
        remaining_in_burst -= 1
        yield dataclasses.replace(packet, timestamp=now)


class IterableSource:
    """Wrap an in-process packet sequence as a source.

    Args:
        packets: the packets to serve, already timestamp-ordered.
        rate: when set, re-time the stream to this offered load
            (pkts/s) with :func:`retime` instead of keeping the
            packets' own timestamps.
        burstiness: burst factor for re-timing (ignored without
            ``rate``).
        seed: RNG seed for the arrival process.
    """

    def __init__(
        self,
        packets: Sequence[Packet],
        *,
        rate: Optional[float] = None,
        burstiness: float = 1.0,
        seed: int = 0,
    ):
        self._packets = packets
        self._rate = rate
        self._burstiness = burstiness
        self._seed = seed

    def __len__(self) -> int:
        return len(self._packets)

    def __iter__(self) -> Iterator[Packet]:
        if self._rate is None:
            return iter(self._packets)
        return retime(
            self._packets,
            rate=self._rate,
            burstiness=self._burstiness,
            seed=self._seed,
        )


class SyntheticSource(IterableSource):
    """Seeded synthetic traffic re-timed to a configurable offered load.

    Generates one labelled trace via
    :func:`repro.datasets.generator.generate_trace` (device mix plus
    attack windows, byte-deterministic under ``seed``) and replays it at
    ``rate`` pkts/s.  Generation happens once in the constructor so a
    timed soak measures the gateway, not the generator.

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

        if n_packets < 1:
            raise ValueError("n_packets must be >= 1")
        base = generate_trace(
            TraceConfig(
                stack=stack, duration=duration, n_devices=n_devices, seed=seed
            )
        )
        if not base:
            raise ValueError("generated base trace is empty")
        packets = (base * (n_packets // len(base) + 1))[:n_packets]
        super().__init__(
            packets, rate=rate, burstiness=burstiness, seed=seed
        )


class PcapSource:
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
        if loop < 1:
            raise ValueError("loop must be >= 1")
        if loop > 1 and rate is None:
            raise ValueError("looping a capture requires rate re-timing")
        self.path = Path(path)
        self._rate = rate
        self._loop = loop
        self._burstiness = burstiness
        self._seed = seed

    def _blocks(self) -> Iterator[FrameBlock]:
        from repro.net.pcap import iter_pcap_blocks

        for __ in range(self._loop):
            with open(self.path, "rb") as handle:
                yield from iter_pcap_blocks(handle)

    def frame_blocks(self) -> Optional[Iterator[FrameBlock]]:
        """The capture as frame blocks, or ``None`` when re-timed."""
        if self._rate is not None:
            return None
        return self._blocks()

    def _raw(self) -> Iterator[Packet]:
        return block_packets(self._blocks())

    def __iter__(self) -> Iterator[Packet]:
        if self._rate is None:
            return self._raw()
        return retime(
            self._raw(),
            rate=self._rate,
            burstiness=self._burstiness,
            seed=self._seed,
        )
