"""Adaptive batching: max-batch / max-latency accumulation.

The vectorised switch path (:meth:`Switch.process_batch`) amortises its
per-call numpy overhead over the batch, so a live gateway wants batches
as large as possible — but a packet must never wait longer than the
configured latency bound for company.  The :class:`AdaptiveBatcher`
implements the standard two-trigger policy:

* **size trigger** — the batch flushes the moment it reaches
  ``max_batch`` packets;
* **deadline trigger** — otherwise it flushes when the *oldest* queued
  packet has waited ``max_latency`` seconds of stream time (the timer a
  real NIC/driver would arm on first enqueue).

Flush times are computed in stream time (packet timestamps), which
makes the batcher wait distribution exact and deterministic: a packet's
wait is bounded by ``max_latency`` by construction, which the p99
assertion in the serve tests pins down.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.net.packet import Packet

__all__ = ["AdaptiveBatcher", "Batch"]

#: Flush trigger tags recorded per batch (obs label + SoakResult counts).
FLUSH_FULL = "full"
FLUSH_DEADLINE = "deadline"
FLUSH_DRAIN = "drain"


@dataclasses.dataclass
class Batch:
    """One flushed batch: packets plus their stream-time bookkeeping.

    Attributes:
        packets: the batch contents, arrival order preserved.
        indices: per-packet global sequence numbers assigned by the
            gateway (used to place verdicts back in arrival order).
        flush_time: stream time at which the batch left the batcher.
        reason: ``"full"``, ``"deadline"`` or ``"drain"``.
        timestamps: float64 arrival stamps of ``packets`` (read from
            the packets when not given).
    """

    packets: List[Packet]
    indices: List[int]
    flush_time: float
    reason: str
    timestamps: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.timestamps is None:
            self.timestamps = np.fromiter(
                (p.timestamp for p in self.packets),
                dtype=np.float64,
                count=len(self.packets),
            )

    def __len__(self) -> int:
        return len(self.packets)

    def waits(self) -> np.ndarray:
        """Per-packet batcher wait (flush time − arrival), seconds."""
        return self.flush_time - self.timestamps


class AdaptiveBatcher:
    """Accumulate packets under a max-latency / max-batch policy.

    Args:
        max_batch: size trigger; also the largest batch ever emitted.
        max_latency: deadline trigger in seconds of stream time; the
            upper bound on any packet's batcher wait.
    """

    def __init__(self, max_batch: int = 1024, max_latency: float = 0.005):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_latency <= 0:
            raise ValueError("max_latency must be positive")
        self.max_batch = max_batch
        self.max_latency = max_latency
        # Never rebound: a flush copies and clears them, so the bound
        # appends :meth:`lanes` hands out stay valid for good.
        self._packets: List[Packet] = []
        self._indices: List[int] = []
        self._stamps: List[float] = []

    def __len__(self) -> int:
        return len(self._packets)

    @property
    def deadline(self) -> float:
        """Stream time at which the pending batch must flush (inf if empty)."""
        if not self._stamps:
            return math.inf
        return self._stamps[0] + self.max_latency

    def due(self, now: float) -> bool:
        """Whether the deadline trigger has fired by stream time ``now``."""
        return now >= self.deadline

    def lanes(self) -> Tuple[List[Packet], Callable, Callable, Callable]:
        """``(pending, add_packet, add_index, add_stamp)`` for a hot loop.

        The gateway's per-packet loop appends a packet, its index and
        its timestamp through these bound methods, reads ``len(pending)``
        itself, and calls :meth:`flush_full` at ``max_batch`` — exactly
        what :meth:`add` does, without a method call per packet.
        """
        return (
            self._packets,
            self._packets.append,
            self._indices.append,
            self._stamps.append,
        )

    def add(self, packet: Packet, index: int) -> Optional[Batch]:
        """Queue one packet; returns the flushed batch on the size trigger."""
        self._packets.append(packet)
        self._indices.append(index)
        self._stamps.append(packet.timestamp)
        if len(self._packets) >= self.max_batch:
            return self.flush_full()
        return None

    def flush_full(self) -> Batch:
        """Size-trigger flush, stamped at the last arrival."""
        return self._flush(self._stamps[-1], FLUSH_FULL)

    def flush_due(self, now: float) -> Optional[Batch]:
        """Flush at the deadline if it has passed (at the *deadline* time,
        like a timer firing — not at ``now``)."""
        if not self.due(now):
            return None
        return self._flush(self.deadline, FLUSH_DEADLINE)

    def drain(self, now: float) -> Optional[Batch]:
        """Flush whatever is pending at shutdown; None when empty.

        The flush is stamped at ``min(deadline, now)``-or-later semantics:
        a drain never back-dates before the last arrival, and a batch
        whose deadline already passed flushes at that deadline so the
        latency bound still holds.
        """
        if not self._packets:
            return None
        return self._flush(min(self.deadline, max(now, self._stamps[-1])), FLUSH_DRAIN)

    def _flush(self, flush_time: float, reason: str) -> Batch:
        batch = Batch(
            self._packets.copy(),
            self._indices.copy(),
            flush_time,
            reason,
            np.fromiter(self._stamps, dtype=np.float64, count=len(self._stamps)),
        )
        self._packets.clear()
        self._indices.clear()
        self._stamps.clear()
        return batch
