"""Bounded, verdict-biased flight recorder for provenance events.

A :class:`FlightRecorder` is a fixed-capacity ring of
:mod:`repro.obs.events` records with two retention classes:

* **critical** — drops, quarantines, sheds, alerts.  Always admitted;
  evicted only when the whole ring is critical.
* **permit** — allow verdicts.  *Head-sampled* (a deterministic
  per-``seq`` hash keeps a configurable fraction) and always evicted
  before any critical record, oldest first.

The two invariants the test suite holds (``tests/test_flight.py``):

1. the ring never exceeds ``capacity`` records, and
2. a critical record is never evicted while an equal-or-older permit
   record is still resident.

Sampling is a pure function of ``(seed, seq)`` — no RNG state — so the
scalar and batch switch paths admit exactly the same permits, a fixed
seed reproduces the same dump, and the batch path can compute the
admission mask for a whole batch in one vectorised call.

The batch path records dozens of decisions per batch, so it hands the
ring columns of compact rows and a builder
(:meth:`FlightRecorder.extend_lazy`); each event is built only when the
ring is read.
"""

from __future__ import annotations

import collections
import itertools
import operator
from typing import Callable, Deque, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs.events import Event, is_critical, write_events

__all__ = ["FlightRecorder"]

_MASK32 = 0xFFFFFFFF
#: Knuth multiplicative-hash constants (32-bit finalising mix).
_MIX_A = 0x9E3779B1
_MIX_B = 0x85EBCA6B
_MIX_C = 0xC2B2AE35
#: Sequence numbers per cached admission block (see admit_permit_mask).
_BLOCK_BITS = 16


class FlightRecorder:
    """Fixed-capacity event ring with verdict-biased retention.

    Args:
        capacity: maximum resident records (critical + permit).
        sample_rate: fraction of permit (allow) records admitted,
            in ``[0, 1]``.  Critical records ignore this.
        seed: sampling seed; the admit decision for a sequence number is
            a pure function of ``(seed, seq)``.
    """

    def __init__(
        self, capacity: int = 4096, *, sample_rate: float = 0.01, seed: int = 0
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        self.capacity = capacity
        self.sample_rate = sample_rate
        self.seed = int(seed) & _MASK32
        # 32-bit threshold so scalar and vector admits compare integers.
        self._threshold = int(sample_rate * (_MASK32 + 1))
        self._permits: Deque[tuple] = collections.deque()
        self._critical: Deque[tuple] = collections.deque()
        self._arrival = 0
        self.recorded = 0        # events accepted into the ring
        self.evicted = 0         # events pushed out by capacity pressure
        self.rejected_permits = 0  # permits refused (ring all-critical)
        self.sampled_out = 0     # permits skipped by head sampling
        # The admission mask of one aligned block of 2**_BLOCK_BITS
        # sequence numbers: (block index, bool mask).
        self._block: Tuple[Optional[int], Optional[np.ndarray]] = (None, None)

    # -- sampling ------------------------------------------------------------

    def _mix(self, seq: int) -> int:
        h = (seq * _MIX_A + self.seed) & _MASK32
        h = ((h ^ (h >> 16)) * _MIX_B) & _MASK32
        h = ((h ^ (h >> 13)) * _MIX_C) & _MASK32
        return (h ^ (h >> 16)) & _MASK32

    def admit_permit(self, seq: int) -> bool:
        """Head-sampling decision for an allow record at ``seq``."""
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        return self._mix(int(seq)) < self._threshold

    def admit_permit_mask(self, seqs: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`admit_permit` over a sequence-number array.

        Runs the mix in uint32: unsigned numpy arithmetic wraps mod
        2**32, which *is* the ``& _MASK32`` of the scalar path, so the
        masks fall out of the representation (and the scalar/vector
        parity test holds the two equal).
        """
        n = len(seqs)
        if self.sample_rate >= 1.0:
            return np.ones(n, dtype=bool)
        if self.sample_rate <= 0.0:
            return np.zeros(n, dtype=bool)
        seqs = np.asarray(seqs)
        if n >= 64:
            # Batches carry runs of nearby seqs (arrival indices, a
            # switch's counter): read them off a cached block mask.
            block = int(seqs.min()) >> _BLOCK_BITS
            if int(seqs.max()) >> _BLOCK_BITS == block:
                return self._block_mask(block).take(seqs - (block << _BLOCK_BITS))
        return self._admit_hash(seqs)

    def admit_permit_range(self, start: int, count: int) -> np.ndarray:
        """:meth:`admit_permit_mask` of ``start, start + 1, ..., start + count - 1``.

        Within one cached block this is a read-only view of the block's
        mask, not a computation.
        """
        if 0.0 < self.sample_rate < 1.0 and count:
            block = start >> _BLOCK_BITS
            if (start + count - 1) >> _BLOCK_BITS == block:
                offset = start - (block << _BLOCK_BITS)
                return self._block_mask(block)[offset : offset + count]
        return self.admit_permit_mask(np.arange(start, start + count, dtype=np.int64))

    def _block_mask(self, block: int) -> np.ndarray:
        """Read-only admission mask of one aligned block of seqs."""
        if self._block[0] != block:
            base = block << _BLOCK_BITS
            mask = self._admit_hash(
                np.arange(base, base + (1 << _BLOCK_BITS), dtype=np.int64)
            )
            mask.flags.writeable = False
            self._block = (block, mask)
        return self._block[1]

    def _admit_hash(self, seqs: np.ndarray) -> np.ndarray:
        h = seqs.astype(np.uint32, copy=True)
        h *= _MIX_A
        h += self.seed
        h ^= h >> np.uint32(16)
        h *= _MIX_B
        h ^= h >> np.uint32(13)
        h *= _MIX_C
        h ^= h >> np.uint32(16)
        return h < self._threshold

    def note_sampled_out(self, count: int = 1) -> None:
        """Account permits the caller skipped because of head sampling."""
        self.sampled_out += count

    # -- the ring ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._permits) + len(self._critical)

    def add(self, event: Event) -> bool:
        """Insert an event, evicting under capacity pressure.

        Returns ``True`` if the event is resident afterwards.  A permit
        arriving while the ring is full of critical records is refused —
        critical records are never evicted for a permit.
        """
        return self._insert((event, None), is_critical(event))

    def extend(self, events) -> int:
        """Add many events; returns how many are resident afterwards."""
        events = list(events)
        return self._extend((events,), None, [is_critical(e) for e in events])

    def extend_lazy(
        self,
        columns: Sequence[Sequence],
        build: Callable[[tuple], Event],
        critical: Sequence[bool],
    ) -> int:
        """Add one event per row of ``columns``, built only when read.

        ``columns`` are equal-length sequences; row ``i`` is the tuple
        of their ``i``-th items, ``build(row)`` makes its event, and
        ``critical[i]`` flags it.  Retention is exactly that of
        :meth:`extend` over the built events, but :meth:`records`
        builds them: the batch switch path keeps dozens of decisions
        per batch, and most are evicted unread.
        """
        return self._extend(columns, build, critical)

    def _extend(self, columns, build, critical: Sequence[bool]) -> int:
        # Ring entries are (arrival, *row, build); an eagerly added
        # event is the one-item row (event,) with build None.
        count = len(critical)
        if count > self.capacity - len(self._permits) - len(self._critical):
            insert = self._insert
            return sum([
                insert(row + (build,), flag)
                for row, flag in zip(zip(*columns), critical)
            ])
        # Room for all: nothing is evicted, so each class just appends.
        start = self._arrival
        entries = list(zip(
            range(start, start + count), *columns, itertools.repeat(build)
        ))
        self._critical.extend(itertools.compress(entries, critical))
        self._permits.extend(
            itertools.compress(entries, map(operator.not_, critical))
        )
        self._arrival += count
        self.recorded += count
        return count

    def _insert(self, tail: tuple, critical: bool) -> bool:
        permits = self._permits
        if len(permits) + len(self._critical) >= self.capacity:
            if permits:
                permits.popleft()
                self.evicted += 1
            elif critical:
                self._critical.popleft()
                self.evicted += 1
            else:
                self.rejected_permits += 1
                return False
        (self._critical if critical else permits).append(
            (self._arrival,) + tail
        )
        self._arrival += 1
        self.recorded += 1
        return True

    def records(self) -> List[Event]:
        """Resident events in arrival order (oldest first)."""
        merged = sorted(
            list(self._permits) + list(self._critical), key=operator.itemgetter(0)
        )
        return [
            entry[1] if entry[-1] is None else entry[-1](entry[1:-1])
            for entry in merged
        ]

    def clear(self) -> None:
        """Empty the ring (counters keep their lifetime totals)."""
        self._permits.clear()
        self._critical.clear()

    def stats(self) -> dict:
        """Lifetime accounting: resident/recorded/evicted/sampling counts."""
        return {
            "resident": len(self),
            "critical": len(self._critical),
            "permits": len(self._permits),
            "recorded": self.recorded,
            "evicted": self.evicted,
            "rejected_permits": self.rejected_permits,
            "sampled_out": self.sampled_out,
        }

    def dump(self, path) -> "Optional[Union[str, object]]":
        """Write resident events as JSONL (oldest first); returns the path."""
        return write_events(self.records(), path)
