"""Shared-memory IPC primitives for process-parallel serving.

Two pieces live here, both deliberately free of any serve-layer policy:

* :class:`ShmRing` — a fixed-slot single-producer/single-consumer ring
  buffer over one ``multiprocessing.shared_memory`` segment, with
  sequence-number handoff (the Vyukov/LMAX scheme restricted to SPSC).
  Every slot carries an ``int64`` sequence cell; the producer for
  ticket ``t`` may write slot ``t % slots`` only when its cell reads
  ``t`` and publishes by storing ``t + 1``; the consumer may read only
  when the cell reads ``t + 1`` and frees the slot by storing
  ``t + slots``.  Aligned 8-byte stores are atomic on every platform
  CPython supports, and each side's local ticket counter means neither
  side ever writes the other's cell — no locks, no syscalls on the
  fast path.

* Frame / result block packing — the wire format for one batch.  A
  *frame* block is the parent→worker payload (the packed key-byte
  matrix; the parent keeps the packet sizes it counts with); a
  *result* block is the worker→parent payload (verdict codes, table
  indices, entry ids, the direct-counter row each key reached per
  table and the tables' shadow hits, and the batch's classification
  time).  Workers only classify, so nothing
  else crosses: the parent counts and records each batch itself.  All
  fixed-width regions are 8-byte aligned so numpy views over the
  shared buffer are cheap and portable.

Ring layout (one SharedMemory segment)::

    +--------------------+--------+--------+-----+--------+
    | seq  int64[slots]  | slot 0 | slot 1 | ... | slot S |
    +--------------------+--------+--------+-----+--------+

Ownership: exactly one process *creates* a ring (and later ``unlink``\\ s
it); workers *attach*.  The attach path immediately unregisters the
segment from ``multiprocessing.resource_tracker`` — CPython registers
shared memory on attach as well as create (bpo-39959), and without the
unregister a worker's exit can tear down a segment the parent still
owns.
"""

from __future__ import annotations

import dataclasses
from multiprocessing import shared_memory
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "RingSpec",
    "ShmRing",
    "frame_slot_bytes",
    "result_slot_bytes",
    "pack_frame",
    "unpack_frame",
    "pack_result",
    "unpack_result",
]


def _align8(n: int) -> int:
    return (n + 7) & ~7


@dataclasses.dataclass(frozen=True)
class RingSpec:
    """Geometry of a ring: fixed slot count and fixed slot size.

    Both sides must agree on the spec (the parent pickles it into the
    worker's argv); it is never stored in the segment itself.
    """

    slots: int
    slot_bytes: int

    def __post_init__(self) -> None:
        # The sequence handoff needs >= 2 slots: with one slot, the
        # producer's publish value for ticket t (``t + 1``) equals its
        # own next ticket, so it would reclaim the slot before the
        # consumer read it and overwrite an unread frame.
        if self.slots < 2:
            raise ValueError("slots must be >= 2")
        if self.slot_bytes < 8:
            raise ValueError("slot_bytes must be >= 8")

    @property
    def seq_bytes(self) -> int:
        return self.slots * 8

    @property
    def total_bytes(self) -> int:
        return self.seq_bytes + self.slots * _align8(self.slot_bytes)


class ShmRing:
    """Fixed-slot SPSC ring over a SharedMemory segment.

    One process is the producer (calls ``try_acquire_write`` /
    ``commit_write``), the other the consumer (``try_acquire_read`` /
    ``commit_read``).  Acquire returns a uint8 numpy view over the slot
    (zero-copy) or ``None`` when the ring is full/empty; the matching
    commit publishes/frees the slot.  At most one slot may be held per
    side at a time.
    """

    def __init__(self, spec: RingSpec, shm: shared_memory.SharedMemory, *, owner: bool):
        self.spec = spec
        self.shm = shm
        self.owner = owner
        self._unlinked = False
        self._closed = False
        self._seq = np.ndarray((spec.slots,), dtype=np.int64, buffer=shm.buf)
        stride = _align8(spec.slot_bytes)
        self._slots = tuple(
            np.ndarray(
                (spec.slot_bytes,),
                dtype=np.uint8,
                buffer=shm.buf,
                offset=spec.seq_bytes + i * stride,
            )
            for i in range(spec.slots)
        )
        self._head = 0  # producer ticket
        self._tail = 0  # consumer ticket

    # -- construction ------------------------------------------------------

    @classmethod
    def create(cls, spec: RingSpec) -> "ShmRing":
        """Create (and own) a new ring segment with an OS-chosen name."""
        shm = shared_memory.SharedMemory(create=True, size=spec.total_bytes)
        ring = cls(spec, shm, owner=True)
        # Initialise handoff cells: slot i is writable for ticket i.
        ring._seq[:] = np.arange(spec.slots, dtype=np.int64)
        return ring

    @classmethod
    def attach(cls, name: str, spec: RingSpec) -> "ShmRing":
        """Attach to an existing ring created by another process.

        Resource-tracker registration is suppressed for the attach: on
        CPython the tracker registers shared memory on attach too
        (bpo-39959), and that stray registration either tears down the
        parent's live segment when this process exits (spawn) or
        double-unregisters it at unlink time (fork).  Ownership — and
        the one registration that matters — stays with the creator.
        """
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            shm = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original
        return cls(spec, shm, owner=False)

    @property
    def name(self) -> str:
        return self.shm.name

    # -- producer side -----------------------------------------------------

    def try_acquire_write(self) -> Optional[np.ndarray]:
        """The next writable slot view, or ``None`` if the ring is full."""
        i = self._head % self.spec.slots
        if int(self._seq[i]) != self._head:
            return None
        return self._slots[i]

    def commit_write(self) -> None:
        """Publish the slot last acquired for writing."""
        i = self._head % self.spec.slots
        self._seq[i] = self._head + 1
        self._head += 1

    # -- consumer side -----------------------------------------------------

    def try_acquire_read(self) -> Optional[np.ndarray]:
        """The next readable slot view, or ``None`` if the ring is empty."""
        i = self._tail % self.spec.slots
        if int(self._seq[i]) != self._tail + 1:
            return None
        return self._slots[i]

    def commit_read(self) -> None:
        """Free the slot last acquired for reading."""
        i = self._tail % self.spec.slots
        self._seq[i] = self._tail + self.spec.slots
        self._tail += 1

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._seq = None
        self._slots = ()
        try:
            self.shm.close()
        except BufferError:
            # A caller still holds a slot view; the mapping is released
            # at process exit instead.  unlink() below is unaffected.
            pass

    def unlink(self) -> None:
        """Remove the segment name (owner only, idempotent)."""
        if not self.owner or self._unlinked:
            return
        self._unlinked = True
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "ShmRing":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        self.unlink()


# -- frame blocks (parent -> worker) ---------------------------------------
#
# Layout (offsets in bytes, n = packets, k = key width)::
#
#     0   int64[2]    n, k
#     16  uint8[n*k]  key-byte matrix, row-major

_FRAME_HEADER = 16


def frame_slot_bytes(max_batch: int, key_width: int) -> int:
    """Slot size for frames of up to ``max_batch`` x ``key_width``."""
    return _align8(_FRAME_HEADER + max_batch * key_width)


def pack_frame(view: np.ndarray, keys: np.ndarray) -> None:
    """Pack one batch's key matrix into a frame slot (no allocation beyond views)."""
    n, k = keys.shape
    need = _FRAME_HEADER + n * k
    if need > view.shape[0]:
        raise ValueError(
            f"frame of {n}x{k} needs {need} bytes, slot holds {view.shape[0]}"
        )
    header = view[:_FRAME_HEADER].view(np.int64)
    header[0] = n
    header[1] = k
    view[_FRAME_HEADER : _FRAME_HEADER + n * k] = keys.reshape(-1)


def unpack_frame(view: np.ndarray) -> np.ndarray:
    """A view of the ``(n, k)`` key matrix in a frame slot.

    Zero-copy: the array aliases the shared slot and is valid only
    until the consumer's ``commit_read``.
    """
    header = view[:_FRAME_HEADER].view(np.int64)
    n, k = int(header[0]), int(header[1])
    return view[_FRAME_HEADER : _FRAME_HEADER + n * k].reshape(n, k)


# -- result blocks (worker -> parent) --------------------------------------
#
# Layout (t = tables the batch reached)::
#
#     0   int64       n
#     8   float64     process_seconds
#     16  int64       t
#     24  int64[n]    entry ids (-1 = none)
#     +   int16[n]    table index into the pipeline (-1 = none)
#     +   uint8[n]    verdict codes (0=allow 1=drop 2=quarantine)
#     +   pad to 8
#     +   int64[t]    shadow hits per table
#     +   int64[t*n]  direct-counter row per table and key, row-major

_RESULT_HEADER = 24


def result_slot_bytes(max_batch: int, tables: int = 0) -> int:
    """Slot size for results of up to ``max_batch`` verdicts that reach
    up to ``tables`` tables."""
    return _align8(_RESULT_HEADER + max_batch * (8 + 2 + 1)) + 8 * tables * (1 + max_batch)


def pack_result(
    view: np.ndarray,
    codes: np.ndarray,
    table_idx: np.ndarray,
    entries: np.ndarray,
    *,
    process_seconds: float,
    rows: Sequence[np.ndarray] = (),
    shadows: Sequence[int] = (),
) -> None:
    """Pack one batch's verdicts, table hits (per table, each key's
    counter row and the shadow-hit count: a
    :class:`~repro.dataplane.switch.TableHits`) and classification
    time into a result slot."""
    n = codes.shape[0]
    t = len(rows)
    need = result_slot_bytes(n, t)
    if need > view.shape[0]:
        raise ValueError(
            f"result of {n} x {t} tables needs {need} bytes, "
            f"slot holds {view.shape[0]}"
        )
    header = view[:_RESULT_HEADER]
    header[:8].view(np.int64)[0] = n
    header[8:16].view(np.float64)[0] = process_seconds
    header[16:].view(np.int64)[0] = t
    o = _RESULT_HEADER
    view[o : o + 8 * n].view(np.int64)[:] = entries
    o += 8 * n
    view[o : o + 2 * n].view(np.int16)[:] = table_idx
    o += 2 * n
    view[o : o + n] = codes
    o = _align8(o + n)
    view[o : o + 8 * t].view(np.int64)[:] = shadows
    o += 8 * t
    table_rows = view[o : o + 8 * t * n].view(np.int64).reshape(t, n)
    for out, table in zip(table_rows, rows):
        out[:] = table


def unpack_result(view: np.ndarray) -> dict:
    """Decode a result slot into owned (copied) arrays.

    Copies, unlike :func:`unpack_frame`: the parent keeps results
    around after freeing the slot.  ``rows`` is ``(t, n)`` intp and
    ``shadows`` a list of ``t`` ints.
    """
    n = int(view[:8].view(np.int64)[0])
    process_seconds = float(view[8:16].view(np.float64)[0])
    t = int(view[16:_RESULT_HEADER].view(np.int64)[0])
    o = _RESULT_HEADER
    entries = view[o : o + 8 * n].view(np.int64).copy()
    o += 8 * n
    table_idx = view[o : o + 2 * n].view(np.int16).copy()
    o += 2 * n
    codes = view[o : o + n].copy()
    o = _align8(o + n)
    shadows = view[o : o + 8 * t].view(np.int64).tolist()
    o += 8 * t
    rows = view[o : o + 8 * t * n].view(np.int64).reshape(t, n).astype(np.intp)
    return {
        "n": n,
        "codes": codes,
        "table_idx": table_idx,
        "entries": entries,
        "rows": rows,
        "shadows": shadows,
        "process_seconds": process_seconds,
    }
