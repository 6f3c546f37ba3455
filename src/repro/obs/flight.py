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
ring is read.  The ring keeps each call's rows as one run per retention
class, with an arrival number per row, and evicts by moving a run's
head; rows added while the ring has room are split into the two
classes only when an eviction or a read first needs them.  The work per
batch therefore does not grow with the records it keeps.
"""

from __future__ import annotations

import collections
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
        # Resident records, oldest first, as runs of rows added together.
        self._permits: Deque[_Run] = collections.deque()
        self._critical: Deque[_Run] = collections.deque()
        self._n_permits = self._n_critical = 0
        # Rows added with room to spare, newest last, not yet split into
        # the two classes: (first arrival, columns, critical, build).
        self._unsplit: List[tuple] = []
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
        return self._n_permits + self._n_critical

    def add(self, event: Event) -> bool:
        """Insert an event, evicting under capacity pressure.

        Returns ``True`` if the event is resident afterwards.  A permit
        arriving while the ring is full of critical records is refused —
        critical records are never evicted for a permit.
        """
        critical = is_critical(event)
        self._split()
        if len(self) >= self.capacity:
            if self._n_permits:
                self._evict(self._permits, 1)
                self._n_permits -= 1
            elif critical:
                self._evict(self._critical, 1)
                self._n_critical -= 1
            else:
                self.rejected_permits += 1
                return False
            self.evicted += 1
        run = _Run((self._arrival,), ((event,),), (0,), None)
        if critical:
            self._critical.append(run)
            self._n_critical += 1
        else:
            self._permits.append(run)
            self._n_permits += 1
        self._arrival += 1
        self.recorded += 1
        return True

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

        ``columns`` are equal-length indexable sequences; row ``i`` is
        the tuple of their ``i``-th items, ``build(row)`` makes its
        event, and ``critical[i]`` (any truthy value, e.g. a non-zero
        verdict code) flags it.
        Retention is exactly that of :meth:`extend` over the built
        events, but :meth:`records` builds them: the batch switch path
        keeps dozens of decisions per batch, and most are evicted
        unread.
        """
        return self._extend(columns, build, critical)

    def _extend(self, columns, build, critical) -> int:
        count = len(critical)
        if not count:
            return 0
        if count <= self.capacity - len(self):
            # Room for all: nothing is evicted, so the rows wait, whole,
            # until an eviction or a read needs them split by class.
            n_critical = int(np.count_nonzero(critical))
            self._unsplit.append((self._arrival, columns, critical, build))
            self._n_critical += n_critical
            self._n_permits += count - n_critical
            self._arrival += count
            self.recorded += count
            return count
        self._split()
        flags = np.asarray(critical, dtype=bool)
        kept, evict_permits, evict_critical = self._overflow(flags.tolist())
        positions = np.flatnonzero(kept)
        flags = flags[kept]
        self._append_runs(self._arrival, columns, flags, build, positions)
        resident = len(flags)
        n_critical = int(np.count_nonzero(flags))
        self._n_critical += n_critical
        self._n_permits += resident - n_critical
        self._arrival += resident
        self.recorded += resident
        self.rejected_permits += count - resident
        self._evict(self._permits, evict_permits)
        self._n_permits -= evict_permits
        self._evict(self._critical, evict_critical)
        self._n_critical -= evict_critical
        self.evicted += evict_permits + evict_critical
        return resident

    def _append_runs(self, start, columns, critical, build, positions=None) -> None:
        """Append rows ``critical`` flags as one run per class.

        Row ``i`` arrived as number ``start + i`` and is row
        ``positions[i]`` of ``columns`` (row ``i`` without positions).
        """
        flags = np.asarray(critical, dtype=bool)
        for deque, rows in (
            (self._critical, np.flatnonzero(flags)),
            (self._permits, np.flatnonzero(~flags)),
        ):
            if len(rows):
                deque.append(
                    _Run(
                        start + rows,
                        columns,
                        positions[rows] if positions is not None else rows,
                        build,
                    )
                )

    def _split(self) -> None:
        """Move the unsplit rows into the two class queues."""
        for start, columns, flags, build in self._unsplit:
            self._append_runs(start, columns, flags, build)
        self._unsplit.clear()

    def _overflow(self, flags: List[bool]) -> Tuple[np.ndarray, int, int]:
        """Insert ``flags`` one at a time into a ring without room for all.

        Each insert into a full ring evicts the oldest permit; with none
        resident it evicts the oldest critical record for a critical
        one and refuses a permit.  Returns which rows were kept and how
        many permits and critical records were evicted: since evictions
        take the oldest first, they are the oldest of the resident
        records followed by the kept ones.
        """
        permits, critical, capacity = self._n_permits, self._n_critical, self.capacity
        kept = []
        evict_permits = evict_critical = 0
        for flag in flags:
            if permits + critical >= capacity:
                if permits:
                    permits -= 1
                    evict_permits += 1
                elif flag:
                    critical -= 1
                    evict_critical += 1
                else:
                    kept.append(False)
                    continue
            if flag:
                critical += 1
            else:
                permits += 1
            kept.append(True)
        return np.array(kept, dtype=bool), evict_permits, evict_critical

    @staticmethod
    def _evict(deque: Deque["_Run"], count: int) -> None:
        while count:
            run = deque[0]
            taken = min(count, len(run.arrivals) - run.head)
            run.head += taken
            count -= taken
            if run.head == len(run.arrivals):
                deque.popleft()

    def records(self) -> List[Event]:
        """Resident events in arrival order (oldest first)."""
        self._split()
        entries = [
            (arrival, run, position)
            for deque in (self._permits, self._critical)
            for run in deque
            for arrival, position in zip(
                _as_list(run.arrivals[run.head :]), _as_list(run.positions[run.head :])
            )
        ]
        entries.sort(key=operator.itemgetter(0))
        return [run.event(position) for __, run, position in entries]

    def clear(self) -> None:
        """Empty the ring (counters keep their lifetime totals)."""
        self._permits.clear()
        self._critical.clear()
        self._unsplit.clear()
        self._n_permits = self._n_critical = 0

    def stats(self) -> dict:
        """Lifetime accounting: resident/recorded/evicted/sampling counts."""
        return {
            "resident": len(self),
            "critical": self._n_critical,
            "permits": self._n_permits,
            "recorded": self.recorded,
            "evicted": self.evicted,
            "rejected_permits": self.rejected_permits,
            "sampled_out": self.sampled_out,
        }

    def dump(self, path) -> "Optional[Union[str, object]]":
        """Write resident events as JSONL (oldest first); returns the path."""
        return write_events(self.records(), path)


def _as_list(values) -> list:
    return values.tolist() if isinstance(values, np.ndarray) else list(values)


class _Run:
    """Rows of one retention class added by one call, oldest first.

    Row ``k`` is resident from ``head`` on; it arrived as number
    ``arrivals[k]`` and is row ``positions[k]`` of ``columns``.
    """

    __slots__ = ("arrivals", "columns", "positions", "build", "head")

    def __init__(self, arrivals, columns, positions, build):
        self.arrivals = arrivals
        self.columns = columns
        self.positions = positions
        self.build = build
        self.head = 0

    def event(self, position: int) -> Event:
        if self.build is None:
            return self.columns[0][position]
        return self.build(tuple(column[position] for column in self.columns))
