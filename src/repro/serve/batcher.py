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

A batcher holds rows of frame blocks (:meth:`AdaptiveBatcher.add_rows`,
which the gateway calls); :meth:`AdaptiveBatcher.add` queues one packet
as a one-row block.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.net.frames import FrameBlock, FrameRows
from repro.net.packet import Packet

__all__ = ["AdaptiveBatcher", "Batch"]

#: Flush trigger tags recorded per batch (obs label + SoakResult counts).
FLUSH_FULL = "full"
FLUSH_DEADLINE = "deadline"
FLUSH_DRAIN = "drain"

_ONE_ROW = np.zeros(1, dtype=np.int64)


@dataclasses.dataclass
class Batch:
    """One flushed batch: packets plus their stream-time bookkeeping.

    The serve path reads a batch as arrays: the executors take keys and
    sizes from ``packets``' frame buffers, and latencies, waits and shed
    records take ``timestamps``; a :class:`Packet` is built only for the
    retrain hook (:meth:`packet_list`).

    Attributes:
        packets: the batch contents, arrival order preserved: the
            batcher's :class:`~repro.net.frames.FrameRows`, whose
            packets are built only on demand.
        indices: per-packet global sequence numbers assigned by the
            gateway (used to place verdicts back in arrival order), as
            a list of ints.
        flush_time: stream time at which the batch left the batcher.
        reason: ``"full"``, ``"deadline"`` or ``"drain"``.
        timestamps: float64 arrival stamps of ``packets``.
    """

    packets: Sequence[Packet]
    indices: Sequence[int]
    flush_time: float
    reason: str
    timestamps: np.ndarray

    def __len__(self) -> int:
        return len(self.packets)

    def __getitem__(self, rows: slice) -> "Batch":
        """Those rows, as a batch flushed at the same time for the same reason."""
        return Batch(
            self.packets[rows], self.indices[rows], self.flush_time, self.reason,
            self.timestamps[rows],
        )

    def packet_list(self) -> List[Packet]:
        """The batch's packets as a new list."""
        return list(self.packets)

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
        # Pending rows: (block, rows, start, stop, sequence number of
        # block row 0) segments, the pending row count, and the first
        # and last pending stamps.
        self._segments: List[Tuple[FrameBlock, np.ndarray, int, int, int]] = []
        self._rows = 0
        self._first = self._last = 0.0

    def __len__(self) -> int:
        return self._rows

    @property
    def deadline(self) -> float:
        """Stream time at which the pending batch must flush (inf if empty)."""
        return self._first + self.max_latency if self._rows else math.inf

    def due(self, now: float) -> bool:
        """Whether the deadline trigger has fired by stream time ``now``."""
        return now >= self.deadline

    def add(self, packet: Packet, index: int) -> Optional[Batch]:
        """Queue one packet; returns the flushed batch on the size trigger."""
        self.add_rows(FrameBlock.of([packet]), _ONE_ROW, 0, 1, index)
        if self._rows >= self.max_batch:
            return self.flush_full()
        return None

    def add_rows(
        self, block: FrameBlock, rows: np.ndarray, start: int, stop: int, base: int
    ) -> None:
        """Queue ``rows[start:stop]`` of a frame block, in arrival order.

        Row ``r`` gets sequence number ``base + r``.  A call that goes on
        where the previous one stopped in the same ``rows`` extends its
        segment.  Unlike :meth:`add` this never flushes: the caller knows
        from the row counts where the size trigger falls and calls
        :meth:`flush_full` there.
        """
        stamps = block.stamps
        if not self._rows:
            self._first = float(stamps[rows[start]])
        self._last = float(stamps[rows[stop - 1]])
        self._rows += stop - start
        segments = self._segments
        if segments:
            last = segments[-1]
            if last[1] is rows and last[3] == start:
                segments[-1] = (block, rows, last[2], stop, base)
                return
        segments.append((block, rows, start, stop, base))

    def flush_full(self) -> Batch:
        """Size-trigger flush, stamped at the last arrival."""
        return self._flush(self._last, FLUSH_FULL)

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
        if not len(self):
            return None
        return self._flush(min(self.deadline, max(now, self._last)), FLUSH_DRAIN)

    def _flush(self, flush_time: float, reason: str) -> Batch:
        segments = [
            (block, rows[start:stop], base)
            for block, rows, start, stop, base in self._segments
        ]
        batch = Batch(
            FrameRows([(block, rows) for block, rows, __ in segments]),
            np.concatenate([rows + base for __, rows, base in segments]).tolist(),
            flush_time,
            reason,
            np.concatenate([block.stamps[rows] for block, rows, __ in segments]),
        )
        self._segments = []
        self._rows = 0
        return batch
