"""Compiled classification: LUT bitmaps, cross-producted classes, boxes.

This is the switch's batch classifier.  Each table's installed rule set
compiles to **per-selected-byte 256-slot lookup tables whose values are
entry bitmasks** (the DPDK-ACL trick), so a key's matching entries are
the AND of one LUT row per key byte.  Where the table is small enough,
those rows are folded further into **equivalence classes** (Recursive
Flow Classification, Gupta and McKeown, SIGCOMM 1999), and a key is
classified by a few small integer gathers with no bitmap work at all.
A wider value/mask table may instead classify over **boxes**, runs of
entries that are the product of a few per-byte member sets, with one
bit per box rather than per entry.

The bitmaps:

* Entries are laid out in *match order* — the exact order the scalar
  reference path scans them (ternary/range: priority descending, then
  insertion order; LPM: prefix length descending; exact: any order,
  at most one entry can match a key).
* Entry ``e`` owns bit ``e % 64`` of uint64 word ``e // 64``; a table
  with ``E`` entries packs into ``W = ceil(E / 64)`` words.
* For key byte position ``j`` the compiler precomputes
  ``lut[j][b]`` — the bitmask of every entry that *could* match byte
  value ``b`` at position ``j``.
* A key matches entry ``e`` iff **all** of its bytes are allowed by
  ``e``, so the surviving-entry mask of a key is the AND over its
  bytes' LUT slots, and the winner is the **lowest set bit** (first
  entry in match order) — bit-identical to the scalar scan, including
  the equal-priority insertion-order tie-break.

On bitmaps, a batch costs ``key_width`` gathers of ``(n, W)`` words
plus the intersections and one find-first-set pass — independent of
the entry count except through ``W`` (64 entries per word).

The classes (:class:`ClassChain`, built by :func:`class_chain`):

* A byte value's *class* at position ``j`` is its distinct LUT row:
  values with equal rows are indistinguishable to every entry.  A
  distilled rule set has a handful per byte (2–15 on the bench's
  learned table, against 256 values).
* Classes are found from one uint64 signature per row
  (:func:`_signatures`) and one sort, then checked row for row; a
  signature collision falls back to an exact sort of the rows.
* Key bytes are cross-producted left to right: the classes of bytes
  ``0..j-1`` times the classes of byte ``j`` form a product table whose
  cells are the ANDs of the two rows, and its distinct cells are the
  classes of bytes ``0..j``.  A cell's index is ``c * P + p`` for
  prefix class ``p`` of ``P`` and byte class ``c``, so the walk is one
  gather of the byte's premultiplied class, an add, and one gather of
  the product table per byte.
* The last product is not reduced: its cells are the *final* cells,
  and the **final tables** map each to its winning slot (the find-first
  set of its row) and, on a shadowed table, to a *crowded* flag (two or
  more entries match), which counts the batch's shadow hits.
* The budget: no product may exceed :data:`CLASS_BUDGET` cells.  Each
  product's size is known from the class counts before its rows are
  ANDed, so an over-budget table stops before forming it, and a table
  of ``CLASS_BUDGET`` entries or more (whose final cells would number
  at least its winnable entries) is not tried at all.  Such a table
  stays on its bitmaps (or its boxes, below): the bitmap AND is the
  no-grouping case of the same program, not a second classifier.
  ``wide_table``'s 5,202 entries, with 155–168 classes per byte, are
  one.

A table on classes costs ``key_width`` gathers of small int arrays per
batch; the bench's learned table (11 rules, 1,076 entries, 6 bytes)
builds products of 99, 518, 346, 1,557 and 3,075 cells.  The LUTs stay
the classes' source and part of every program.

The boxes (:class:`BoxIndex`, built by :func:`box_index`):

* A TCAM needs each range rule expanded into the cross product of its
  fields' prefix sets (``RuleSet.expand``), and the bitmaps pay for it:
  ``wide_table``'s 256 rules are 5,202 entries, 82 words a key byte.
  A *box* is a run of consecutive match-order entries that is exactly
  the product of its per-byte ``(value, mask)`` member sets, each set's
  members admitting disjoint byte values; so at most one entry of a
  box matches any key.  An entry in no larger box is a box of one.
* Boxes are found in the table's own entries, not in the rules they
  came from, so single writes and partial update diffs stay correct:
  candidate passes (:func:`_box_starts`) merge runs of neighbouring
  boxes whose member sets differ at one byte, and an exact check
  (:func:`_box_members`) keeps a candidate only if it lists its product
  in nested order (each byte cycles through its members with a fixed
  stride, the strides chaining up to the box's size) with disjoint
  members; a candidate that fails falls back to the previous pass's.
  A product in any other order is cut into smaller boxes.  The build is
  vectorised, with no Python loop per box.
* Classification ANDs box bitmaps (``ceil(B / 64)`` words, 4 on
  ``wide_table``) and takes the find-first-set box, as over entries;
  then one gather per byte that varies in some box, from a small
  ``(boxes + 1, 256)`` table of each member's rank times its stride,
  sums to the winning entry's offset in its box, so the slot is the
  box's first slot plus that.  Two or more matching boxes are a
  shadow hit.
* A table without a class chain classifies over boxes when they pack
  into fewer bitmap words than its entries; ``luts``, ``words`` and
  ``chain`` keep their entry-level meaning, so tables on chains (the
  learned table) and one-word tables never build boxes.  A table on
  boxes never reads its entry LUTs, so they are built only if asked
  for (:attr:`CompiledTable.luts`).

The build is O(E) per byte position, never O(E × 256):

* value/mask entries (ternary, LPM) decompose by bit: per position and
  bit the compiler packs the entries that admit that bit as 0 and as 1
  (16 W-word masks), and ``lut[j][b]`` is the AND of the 8 masks
  selected by the bits of ``b``;
* interval entries (range, and exact as the point interval
  ``[v, v]``) scatter each entry's bit into the rows of its ``lo`` and
  ``hi``; a running OR up the byte values gives "``lo <= b``", one
  down gives "``hi >= b``", and their AND is the LUT.

A key's outcome is its *slot*: the winner's match-order index, or
``-1`` when no entry matched (``frexp`` of a zero word yields it with
no special case).  Every per-slot array a program carries has one cell
per entry plus a last one, the *miss slot*, which slot ``-1`` reads:

* ``entry_ids`` and ``priorities`` (``-1`` and 0 on a miss);
* ``codes``, each entry's verdict code (:data:`ACTION_CODES`, or
  :data:`NOT_TERMINAL` for an action that does not end the pipeline),
  built at compile time; the miss cell follows the table's current
  ``default_action``, which can change without a recompile;
* ``rows``, each entry's direct-counter row in its table
  (:data:`~repro.dataplane.tables.DEFAULT_ROW` on a miss).

So the switch resolves a batch's verdicts, entries and counter rows
with one gather each, and a table counts the batch from the rows with
two ``np.bincount`` calls (``_count_rows``), with no per-entry work:
verdicts, direct counters, aggregate telemetry, and
:class:`~repro.obs.events.DecisionRecord` entry ids are
indistinguishable from the scalar oracle ``lookup``.
``tests/test_compiled_differential.py`` and the hypothesis suites in
``tests/test_tables_property.py`` lock that equivalence,
``tests/test_class_tables.py`` holds classes, bitmaps and the scalar
scan equal on both sides of the budget, and ``tests/test_box_tables.py``
holds boxes, bitmaps and the scalar scan equal.

Lifecycle (see docs/ARCHITECTURE.md, "Compiled classification"): a
program is derived state.  Every entry install/remove bumps the owning
table's ``generation``; before each batch the classifier rebuilds only
the tables whose generation moved since their program was built.  LUTs,
classes and boxes depend on nothing but the entries' match-order bytes,
so a lazy rebuild of a table on classes or boxes whose bytes equal one
of the table's last two programs' (a rule set swapped back in) reuses
that program's LUTs, chain and boxes and rebuilds only the per-slot
arrays.
:meth:`repro.dataplane.switch.Switch.compile` builds every table's
program now, from scratch, for callers that want the cost up front.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import sys
import time
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.rules import RULE_ACTIONS
import repro.obs.registry  # noqa: F401  (module handle resolved below)

# See switch.py: the package rebinds `repro.obs.registry` to a function.
_obs_state = sys.modules["repro.obs.registry"]

from repro.dataplane.tables import (
    DEFAULT_ROW,
    BatchMatchResult,
    ExactTable,
    LpmTable,
    RangeTable,
    TernaryTable,
)

__all__ = [
    "ACTION_CODES",
    "CODE_ACTIONS",
    "NOT_TERMINAL",
    "CompileReport",
    "CompiledTable",
    "CompiledClassifier",
    "compile_table",
]

#: Verdict action <-> uint8 code, the columnar verdict currency (and the
#: process backend's wire format): the rule set's action codes.
CODE_ACTIONS: Tuple[str, ...] = RULE_ACTIONS
ACTION_CODES: Dict[str, int] = {a: i for i, a in enumerate(CODE_ACTIONS)}
#: Code of a table action that does not end the pipeline.
NOT_TERMINAL = 255

@dataclasses.dataclass
class CompileReport:
    """What one build pass of :class:`CompiledClassifier` produced."""

    generation: int
    tables: int
    entries: int
    words: int
    #: Bytes of the LUTs built (a table on boxes builds none).
    lut_bytes: int
    #: Cross-product cells of the class chains built (0: all on bitmaps).
    class_cells: int
    seconds: float
    #: Boxes of the tables that classify over boxes (0: none does).
    boxes: int = 0

    def __str__(self) -> str:
        return (
            f"gen {self.generation}: {self.tables} tables, "
            f"{self.entries} entries in {self.words} words "
            f"({self.lut_bytes} LUT bytes, {self.class_cells} class cells, "
            f"{self.boxes} boxes), {self.seconds * 1e3:.2f} ms"
        )


def _words_for(count: int) -> int:
    return max(1, -(-count // 64))


def _pack_entries(admits: np.ndarray, words: int) -> np.ndarray:
    """Pack a ``(..., E)`` bool array into ``(..., W)`` uint64 words.

    Bit ``e % 64`` of word ``e // 64`` is set where ``admits[..., e]``
    is true.  Little-endian bit and byte order puts entry 0 in the
    least significant bit of word 0 — the find-first-set resolve in
    :func:`_resolve` depends on exactly this layout.
    """
    packed = np.packbits(admits, axis=-1, bitorder="little")
    padded = np.zeros(admits.shape[:-1] + (words * 8,), dtype=np.uint8)
    padded[..., : packed.shape[-1]] = packed
    return padded.view("<u8").astype(np.uint64, copy=False)


def _bit_planes(matrix: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """``(width, 8, E)`` bool: bit ``k`` of byte ``j`` of each entry."""
    return ((np.ascontiguousarray(matrix.T)[:, None, :] >> shifts) & 1).astype(bool)


def value_mask_luts(values: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """``(width, 256, W)`` LUTs for ``(E, width)`` value/mask entries.

    Entry ``e`` admits bit ``k`` of key byte ``j`` set to ``x`` iff its
    mask leaves that bit free or its value has that bit equal to ``x``.
    The LUT over bits ``0..k`` doubles from the one over bits
    ``0..k-1``: row ``b`` ANDs the old row ``b mod 2**k`` with the
    mask admitting bit ``k`` of ``b``.
    """
    count, width = values.shape
    words = _words_for(count)
    shifts = np.arange(8, dtype=np.uint8)[None, :, None]
    # care[j, k] / one[j, k]: the entries whose mask / value sets bit k
    # of byte j, packed; free[j, k]: the entries leaving that bit free.
    # (Packed from C-ordered bits: packbits on a strided array is ~3x
    # slower.)
    care = _pack_entries(_bit_planes(masks, shifts), words)
    one = _pack_entries(_bit_planes(values, shifts), words)
    free = _pack_entries(np.ones(count, dtype=bool), words) & ~care
    # planes[j, k, x]: the entries admitting bit k of byte j == x.
    planes = np.stack([free | (care & ~one), free | (care & one)], axis=2)
    luts = planes[:, 0]
    for k in range(1, 8):
        luts = (planes[:, k, :, None, :] & luts[:, None, :, :]).reshape(
            width, -1, words
        )
    return luts


def interval_luts(lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """``(width, 256, W)`` LUTs for ``(E, width)`` closed byte intervals."""
    count, width = lows.shape
    words = _words_for(count)
    entry = np.arange(count)
    word = entry // 64
    bit = np.left_shift(np.uint64(1), (entry % 64).astype(np.uint64))
    luts = np.empty((width, 256, words), dtype=np.uint64)
    for j in range(width):
        starts = np.zeros((256, words), dtype=np.uint64)
        ends = np.zeros((256, words), dtype=np.uint64)
        np.bitwise_or.at(starts, (lows[:, j], word), bit)
        np.bitwise_or.at(ends, (highs[:, j], word), bit)
        started = np.bitwise_or.accumulate(starts, axis=0)  # lo <= b
        open_ = np.bitwise_or.accumulate(ends[::-1], axis=0)[::-1]  # hi >= b
        np.bitwise_and(started, open_, out=luts[j])
    return luts


def _resolve(masks: np.ndarray, shadowed: bool) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Each ``(m, W)`` mask's winner, and whether two or more bits are set.

    Returns ``(slot, crowded)``: ``slot`` is the lowest set bit's entry
    index (``-1`` for an empty mask); ``crowded`` is computed only when
    ``shadowed`` (else ``None``).
    """
    nonzero = masks != 0
    # First entry in match order == lowest set bit overall: locate the
    # first nonzero word, then its least significant set bit.
    first_word = nonzero.argmax(axis=1)
    row_words = masks[np.arange(len(masks)), first_word]
    isolated = row_words & (~row_words + np.uint64(1))
    # frexp(2**k) has exponent k + 1 (exact in float64 up to 2**63),
    # and frexp(0) exponent 0: a mask with no set bit has no nonzero
    # word (first_word 0), so it lands on slot -1.
    slot = first_word * 64 + (np.frexp(isolated.astype(np.float64))[1] - 1)
    if not shadowed:
        return slot, None
    # Two or more set bits: the first nonzero word has a second one, or
    # a later word is nonzero too.
    crowded = (row_words & (row_words - np.uint64(1))) != 0
    return slot, crowded | (nonzero.sum(axis=1) >= 2)


@functools.lru_cache(maxsize=16)
def _multipliers(words: int) -> np.ndarray:
    """Odd per-word multipliers of :func:`_signatures` (read-only)."""
    multipliers = np.arange(words, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    multipliers |= np.uint64(1)
    multipliers.flags.writeable = False
    return multipliers


def _signatures(rows: np.ndarray) -> np.ndarray:
    """One uint64 per ``(..., W)`` mask, equal for equal masks.

    Each word goes through a bijective xor-shift and a per-word odd
    multiplier, and the words are summed mod 2**64, so one-word masks
    never collide and wider ones rarely do; :func:`_classes` checks
    every grouping it takes from them.
    """
    mixed = rows >> np.uint64(29)
    mixed ^= rows
    return np.einsum("...w,w->...", mixed, _multipliers(rows.shape[-1]))


def _classes(rows: np.ndarray, signatures: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an ``(m, W)`` mask array: ``(inverse, reps)``.

    ``reps`` holds one row per class and ``rows[i] == reps[inverse[i]]``.
    Rows are grouped by ``signatures`` and the grouping is checked row
    for row; should two distinct rows share a signature, it is redone
    exactly over the rows' bytes.
    """
    order = signatures.argsort(kind="stable")
    ranked = signatures[order]
    head = np.empty(len(order), dtype=bool)
    head[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=head[1:])
    reps = rows[order[head]]
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(head) - 1
    if not (reps.take(inverse, axis=0) == rows).all():
        raw = np.ascontiguousarray(rows).view(np.dtype((np.void, 8 * rows.shape[1])))
        __, first, inverse = np.unique(raw.ravel(), return_index=True, return_inverse=True)
        reps = rows[first]
    return inverse, reps


#: Most cells one cross-product table may hold.
CLASS_BUDGET = 4096


@dataclasses.dataclass
class ClassChain:
    """A table's key bytes cross-producted into one chain of classes.

    A key's *final cell* comes from one walk: its first byte's class,
    ``first[b]``; then, for each later byte ``j``, the product cell
    ``cls + index[j - 1][b]`` (the byte's class premultiplied by the
    classes so far), which ``tables`` maps to the class of the bytes so
    far, except for the last byte, whose product cell is the final
    cell.  A one-byte key's byte is its final cell.

    Attributes:
        first: ``(256,)`` intp class of key byte 0 (``None`` at width 1).
        index: ``(key_width - 1, 256)`` intp premultiplied classes of
            key bytes 1 onwards.
        tables: intp cell -> class maps, one per product but the last.
        slot_of: intp winning slot of each final cell (``-1``: miss).
        crowded_of: whether two or more entries match each final cell
            (shadowed tables only, else ``None``).
    """

    first: Optional[np.ndarray]
    index: np.ndarray
    tables: Tuple[np.ndarray, ...]
    slot_of: np.ndarray
    crowded_of: Optional[np.ndarray]

    @property
    def cells(self) -> int:
        """Cells of the chain's tables, the final one included."""
        return sum(len(table) for table in self.tables) + len(self.slot_of)

    def walk(self, keys: np.ndarray) -> np.ndarray:
        """The final cell of each row of a ``(n, key_width)`` key matrix."""
        if self.first is None:
            return keys[:, 0]
        cls = self.first.take(keys[:, 0])
        for j, table in enumerate(self.tables, 1):
            cls = table.take(cls + self.index[j - 1].take(keys[:, j]))
        return cls + self.index[-1].take(keys[:, -1])


def class_chain(luts: np.ndarray, *, shadowed: bool) -> Optional[ClassChain]:
    """Cross-product ``(width, 256, W)`` LUTs into a :class:`ClassChain`.

    Returns ``None`` — the table stays on its bitmaps — when any
    product would exceed :data:`CLASS_BUDGET` cells.  That is decided
    before forming a product: each product's size is known from the
    class counts before its masks are ANDed.  (A table of
    ``CLASS_BUDGET`` entries or more is not tried at all, see
    :meth:`CompiledTable.from_match_order`.)
    """
    width, __, words = luts.shape
    if width == 1:
        return ClassChain(None, np.empty((0, 256), dtype=np.intp), (), *_resolve(luts[0], shadowed))
    signatures = _signatures(luts)
    first, reps = _classes(luts[0], signatures[0])
    index, tables = [], []
    for j in range(1, width):
        byte_of, byte_reps = _classes(luts[j], signatures[j])
        if len(reps) * len(byte_reps) > CLASS_BUDGET:
            return None
        index.append(byte_of * len(reps))
        # Cell c * len(reps) + p: prefix class p, byte class c.
        product = (byte_reps[:, None, :] & reps[None, :, :]).reshape(-1, words)
        if j == width - 1:
            slot_of, crowded_of = _resolve(product, shadowed)
        else:
            cls, reps = _classes(product, _signatures(product))
            tables.append(cls)
    return ClassChain(first, np.stack(index), tuple(tables), slot_of, crowded_of)


def _member_codes(values: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """``(width, E)`` uint16 ``(value & mask) << 8 | mask``, a row per byte.

    Equal codes are equal byte patterns: value bits outside the mask
    are cleared, since they match nothing.  Rows are bytes because the
    box passes reduce across a key's bytes, which numpy does fast over
    a leading axis and slowly over a short trailing one.
    """
    codes = ((values & masks).astype(np.uint16) << 8) | masks
    return np.ascontiguousarray(codes.T)


@functools.lru_cache(maxsize=1)
def _byte_sets() -> Tuple[np.ndarray, ...]:
    """Tables of the byte values a ``(value, mask)`` pattern admits.

    Value ``b`` of a 4-word set is bit ``b % 64`` of word ``b // 64``.
    Returns ``(low, high, spread, starts)``:

    * ``low[v << 6 | m]``: the 64-bit set of ``b < 64`` with
      ``(b ^ v) & m == 0``, for 6-bit ``v`` and ``m``;
    * ``high[v << 2 | m]``: all-ones in the words whose two high bits
      ``w`` have ``(w ^ v) & m == 0``, for 2-bit ``v`` and ``m``;
    * ``spread[starts[m]:starts[m + 1]]``: the values ``s`` with
      ``s & m == 0``, in order.
    """
    values = np.arange(256)
    six, two = values[:64], values[:4]
    low = ((six[None, None, :] ^ six[:, None, None]) & six[None, :, None]) == 0
    low = np.packbits(low, axis=-1, bitorder="little").view("<u8").reshape(-1)
    high = ((two[None, None, :] ^ two[:, None, None]) & two[None, :, None]) == 0
    high = np.where(high, ~np.uint64(0), np.uint64(0)).reshape(16, 4)
    mask, spread = np.nonzero((values[:, None] & values[None, :]) == 0)
    starts = np.searchsorted(mask, np.arange(257))
    tables = (low.astype(np.uint64), high, spread, starts)
    for table in tables:
        table.flags.writeable = False
    return tables


def _admit_words(codes: np.ndarray) -> np.ndarray:
    """``(n, 4)`` uint64: the byte values each member code admits."""
    low, high = _byte_sets()[:2]
    value, mask = codes >> 8, codes & 0xFF
    return high[((value >> 6) << 2) | (mask >> 6)] & low[((value & 63) << 6) | (mask & 63)][:, None]


def _free(codes: np.ndarray) -> np.ndarray:
    """uint16 count of the byte values each member code admits."""
    return np.left_shift(np.uint16(1), 8 - np.bitwise_count(codes & 0xFF).astype(np.uint16))


def _admitted(codes: np.ndarray, bases: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``bases[i] + b`` for every byte value ``b`` code ``i`` admits, and
    how many values each code admits."""
    spread, starts = _byte_sets()[2:]
    mask = codes & 0xFF
    first = starts[mask]
    counts = starts[mask + 1] - first
    heads = np.cumsum(counts) - counts
    spots = np.repeat(first - heads, counts) + np.arange(counts.sum())
    return np.repeat(bases + (codes >> 8), counts) + spread[spots], counts


def _mix(codes: np.ndarray) -> np.ndarray:
    """A uint32 hash per code (one to one); a member set's signature is
    their sum."""
    mixed = codes.astype(np.uint32) * np.uint32(0x9E3779B1)
    mixed ^= mixed >> np.uint32(16)
    return mixed


def _sizes(starts: np.ndarray, count: int) -> np.ndarray:
    """Lengths of the runs of ``count`` items that begin at ``starts``."""
    sizes = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=sizes[:-1])
    sizes[-1] = count - starts[-1]
    return sizes


def _box_starts(codes: np.ndarray) -> list:
    """Candidate boxes of ``(width, E)`` member codes, pass by pass.

    Returns each pass's boxes as their first entries, from one box per
    entry to the last pass's.  Each pass merges runs of adjacent
    boxes whose member sets differ at one byte only, the same byte
    along the run.  A box whose set there repeats its run's first box's
    starts a new run (products of one shape laid end to end), and a
    run whose members there admit more than 256 values between them
    (so they cannot be disjoint) stays apart.  A product laid out in
    :func:`itertools.product` order, bytes nested in any order, merges
    one byte per pass.  Member sets are compared by signature
    (:func:`_mix`), and a run's members may be disjoint only between
    neighbours, so a candidate is only a candidate: :func:`_box_members`
    checks it.
    """
    width, count = codes.shape
    signature = _mix(codes)
    cover = _free(codes)
    weights = np.arange(width, dtype=np.uint16)[:, None]
    starts = np.arange(count)
    levels = [starts]
    for __ in range(width):
        boxes = len(starts)
        if boxes < 2:
            break
        differs = (signature[:, 1:] != signature[:, :-1]).view(np.uint8)
        one = np.add.reduce(differs, axis=0, dtype=np.uint16) == 1
        axis = np.add.reduce(differs * weights, axis=0).astype(np.intp)
        axis[~one] = 0  # the byte a one-byte pair differs at
        # join[k]: box k + 1 joins box k.  A box joins one run only, so
        # a pair along another byte than the pair before it waits.
        join = one.copy()
        join[1:] &= ~(one[:-1] & (axis[:-1] != axis[1:]))
        columns = np.arange(boxes)
        for cut in range(3):
            heads = np.flatnonzero(np.concatenate(([True], ~join)))
            sizes = _sizes(heads, boxes)
            run_axis = axis[np.minimum(heads, boxes - 2)]
            # Each box's cell at its run's byte, in the (width, B) arrays.
            spots = np.repeat(run_axis * boxes, sizes) + columns
            mine = signature.reshape(-1).take(spots)
            if cut == 0:
                repeats = mine == np.repeat(mine[heads], sizes)
                repeats[heads] = False
                join &= ~repeats[1:]
                continue
            covered = np.add.reduceat(cover.reshape(-1).take(spots), heads, dtype=np.int64)
            crowded = covered > 256
            if not crowded.any():
                break
            # The crowded runs' boxes stay single, so the next round
            # is not crowded.
            join &= ~np.repeat(crowded, sizes)[1:]
        if len(heads) == boxes:
            break
        summed = np.add.reduceat(mine, heads)
        merged = np.arange(len(heads))
        signature, cover = signature.take(heads, axis=1), cover.take(heads, axis=1)
        signature[run_axis, merged] = summed
        cover[run_axis, merged] = covered
        starts = starts[heads]
        levels.append(starts)
    return levels


@dataclasses.dataclass
class _Members:
    """Boxes' per-byte member sets, from :func:`_box_members`."""

    #: Whether each box is exactly the product of its member sets.
    exact: np.ndarray
    #: ``(B, width, 4)`` uint64: the byte values each box admits.
    admitted: np.ndarray
    #: ``(box, byte, code, rank * stride)`` of each member whose rank
    #: is not 0.
    ranked: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _box_members(codes: np.ndarray, starts: np.ndarray) -> _Members:
    """Check the boxes cut at ``starts``, exactly, and rank their members.

    A box is exact here when it lists its product in nested order:
    each byte ``j`` keeps one member for ``stride[j]`` entries and
    cycles through ``count[j]`` members, the bytes' strides chain
    (each stride times its count is the next larger stride, or the
    box's size), and the members of each byte admit disjoint values.
    Then entry ``i`` of a box is the one whose member at every byte
    ``j`` has rank ``(i // stride[j]) % count[j]``, so every entry is
    distinct and the run is the whole product.  A byte's stride is
    where its code first changes (the box's size if it never does).
    """
    width, count = codes.shape
    boxes = len(starts)
    sizes = _sizes(starts, count)
    # Positions are exact in float32 below 2**24, and its division is
    # several times faster than int64's.
    real = np.float32 if count < 1 << 24 else np.float64
    first = np.repeat(starts, sizes)
    position = (np.arange(count) - first).astype(real)  # in its box
    changes = np.zeros((width, count), dtype=bool)
    np.not_equal(codes[:, 1:], codes[:, :-1], out=changes[:, 1:])
    changes[:, starts] = False
    # Each byte's first change in each box, found among all changes.
    spots = np.append(np.flatnonzero(changes), changes.size)
    begins = starts + (np.arange(width) * count)[:, None]
    stride = (spots[np.searchsorted(spots, begins)] - begins).astype(real)
    np.minimum(stride, sizes, out=stride)
    # A byte cycles until the next larger stride among its box's bytes.
    larger = np.where(stride[None] > stride[:, None], stride[None], real(count))
    members = np.minimum(larger.min(axis=1), sizes) / stride
    exact = np.logical_and.reduce(members == np.floor(members), axis=0)
    # (So the smallest stride is 1: the strides' chain telescopes.)
    exact &= np.multiply.reduce(members, axis=0) == sizes
    # Every entry repeats the member its position selects.
    step = np.repeat(stride, sizes, axis=1)
    cycle = np.repeat(members, sizes, axis=1)
    digit = np.floor(position / step)
    wraps = digit / cycle
    np.floor(wraps, out=wraps)
    wraps *= cycle
    digit -= wraps
    digit *= step
    source = digit.astype(np.intp)
    source += first + (np.arange(width) * count)[:, None]
    repeats = np.logical_and.reduce(codes.reshape(-1).take(source) == codes, axis=0)
    exact[np.repeat(np.arange(boxes), sizes)[~repeats]] = False
    # The members themselves: box k's ranks 0..members[j, k] - 1.
    members = members.astype(np.intp).reshape(-1)
    varied = np.flatnonzero(members > 1)
    byte, held = np.divmod(varied, boxes)
    counts = members[varied]
    heads = np.cumsum(counts) - counts
    rank = np.arange(counts.sum()) - np.repeat(heads, counts)
    owner, column = np.repeat(held, counts), np.repeat(byte, counts)
    offset = rank * np.repeat(stride.reshape(-1)[varied].astype(np.intp), counts)
    code = codes[column, starts[owner] + offset]
    admitted = _admit_words(codes[:, starts].T.reshape(-1)).reshape(boxes, width, 4)
    if len(varied):
        # Pairwise disjoint iff the union admits as many values as the
        # members do between them.
        union = np.bitwise_or.reduceat(_admit_words(code), heads)
        admitted.reshape(-1, 4)[held * width + byte] = union
        bits = np.bitwise_count(union)
        bits = bits[:, 0] + bits[:, 1] + bits[:, 2] + bits[:, 3]
        crowded = bits != np.add.reduceat(_free(code), heads, dtype=np.int64)
        exact[held[crowded]] = False
    keep = rank > 0
    return _Members(exact, admitted, (owner[keep], column[keep], code[keep], offset[keep]))


def _transpose_bytes(x: np.ndarray) -> np.ndarray:
    """Transpose each uint64 as an 8 x 8 bit matrix, in place.

    Bit ``c`` of byte ``r`` (little-endian) moves to bit ``r`` of byte
    ``c``: three delta swaps (Hacker's Delight, section 7-3).
    """
    for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0)):
        t = (x ^ (x >> np.uint64(shift))) & np.uint64(mask)
        x ^= t ^ (t << np.uint64(shift))
    return x


def _box_luts(admitted: np.ndarray) -> np.ndarray:
    """``(width, 256, W)`` box bitmaps from ``(B, width, 4)`` value sets.

    A bit-matrix transpose: eight boxes' value bytes are gathered into
    one word, transposed as 8 x 8 bits, and scattered into eight
    values' box bytes.
    """
    boxes, width, __ = admitted.shape
    words = _words_for(boxes)
    padded = np.zeros((words * 64, width, 4), dtype=np.uint64)
    padded[:boxes] = admitted
    rows = padded.view(np.uint8).reshape(words * 8, 8, width * 32)
    eights = np.ascontiguousarray(rows.transpose(0, 2, 1)).view("<u8")[..., 0]
    flipped = _transpose_bytes(eights).view(np.uint8).reshape(words * 8, width * 32, 8)
    luts = np.ascontiguousarray(flipped.transpose(1, 2, 0)).reshape(width, 256, words * 8)
    return luts.view("<u8").astype(np.uint64, copy=False)


@dataclasses.dataclass
class BoxIndex:
    """A value/mask table's match-order entries cut into *boxes*.

    A box is a run of consecutive entries that is exactly the product
    of its per-byte member sets, the members of each set admitting
    disjoint byte values, so at most one of its entries matches any
    key.  The first box that matches a key (bitmaps over boxes, as
    over entries) holds the key's first matching entry, which one
    gather per varying byte finds; two or more matching boxes are a
    shadow hit.

    Attributes:
        luts: ``(key_width, 256, box words)`` uint64 box bitmaps.
        base: ``(boxes + 1,)`` intp: each box's first slot, then ``-1``
            for the miss box ``-1``.
        index: ``(byte, flat)`` for each byte that varies in some box:
            ``flat[box * 256 + b]`` is the offset in its box of the
            member admitting value ``b`` (its rank times its stride;
            0 elsewhere, and in the last row, which the miss box
            reads).
    """

    luts: np.ndarray
    base: np.ndarray
    index: Tuple[Tuple[int, np.ndarray], ...]

    @property
    def boxes(self) -> int:
        return len(self.base) - 1

    def classify(self, keys: np.ndarray, shadowed: bool) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Each key's slot, and whether two or more boxes match it."""
        survivors = np.take(self.luts[0], keys[:, 0], axis=0)
        for j in range(1, len(self.luts)):
            survivors &= np.take(self.luts[j], keys[:, j], axis=0)
        box, crowded = _resolve(survivors, shadowed)
        row = box * 256
        slot = self.base.take(box)
        for j, flat in self.index:
            slot += flat.take(row + keys[:, j])
        return slot, crowded


def box_index(values: np.ndarray, masks: np.ndarray) -> Optional[BoxIndex]:
    """Cut ``(E, width)`` value/mask entries, in match order, into boxes.

    Returns ``None`` when the boxes would pack into no fewer bitmap
    words than the entries.  A candidate box (:func:`_box_starts`) that
    is not exact (:func:`_box_members`) falls back to the candidates of
    the pass before, down to one-entry boxes, which always are.
    """
    count, width = values.shape
    words = _words_for(count)
    if words == 1:
        return None
    codes = _member_codes(values, masks)
    # An entry whose neighbours both differ from it at two bytes or more
    # joins no box (no merge can bring their member sets to one byte of
    # difference), so such entries alone may rule boxes out.
    steps = (codes[:, 1:] != codes[:, :-1]).view(np.uint8)
    steps = np.add.reduce(steps, axis=0, dtype=np.uint16) == 1
    joins = np.zeros(count, dtype=bool)
    joins[1:] = steps
    joins[:-1] |= steps
    if _words_for(count - int(np.count_nonzero(joins))) >= words:
        return None
    levels = _box_starts(codes)
    starts = levels.pop()
    if _words_for(len(starts)) >= words:
        return None
    members = _box_members(codes, starts)
    while not members.exact.all():
        finer = levels.pop()
        loose = np.repeat(~members.exact, _sizes(starts, count))
        starts = np.union1d(starts, finer[loose[finer]])
        if _words_for(len(starts)) >= words:
            return None
        members = _box_members(codes, starts)
    boxes = len(starts)
    luts = _box_luts(members.admitted)
    owner, byte, code, offset = members.ranked
    varying = np.flatnonzero(np.bincount(byte, minlength=width))
    # Each varying byte's row of the index.
    row = np.cumsum(np.bincount(varying, minlength=width)) - 1
    largest = int(_sizes(starts, count).max())
    index = np.zeros((len(varying), (boxes + 1) * 256), dtype=np.min_scalar_type(largest - 1))
    cells, value = _admitted(code, (row[byte] * (boxes + 1) + owner) * 256)
    index.reshape(-1)[cells] = np.repeat(offset, value)
    return BoxIndex(
        luts=luts,
        base=_with_miss(starts, -1, np.intp),
        index=tuple(zip(varying.tolist(), index)),
    )


def _with_miss(values: Sequence, miss, dtype) -> np.ndarray:
    """``values`` as a ``dtype`` array, plus the miss slot's ``miss``."""
    out = np.empty(len(values) + 1, dtype=dtype)
    out[:-1] = values
    out[-1] = miss
    return out


@dataclasses.dataclass
class CompiledTable:
    """One table's rule set, compiled to per-byte LUT bitmaps and, within
    the budget, a class chain that classifies without them; a wider
    value/mask table may classify over boxes instead.

    Attributes:
        key_width: bytes per key (LUT count).
        entries: installed entry count at compile time.
        words: uint64 words per bitmask (``ceil(entries / 64)``).
        luts: ``(key_width, 256, words)`` uint64 — per-byte entry masks;
            a table on boxes builds them only when they are read.
        entry_ids: ``(entries + 1,)`` int64 — match-order entry ids,
            then ``-1`` in the miss slot.
        priorities: ``(entries + 1,)`` int64 — match-order priorities
            (zero for the priority-less exact/LPM kinds), then 0.
        entry_actions: match-order action names.
        shadowed: whether multi-match keys count as shadow hits (the
            priority-ordered ternary/range kinds, mirroring the
            scalar path's ``table_shadow_hits_total`` accounting).
        codes: ``(entries + 1,)`` uint8 — match-order verdict codes,
            then the default action's (see :meth:`verdict_codes`).
        rows: ``(entries + 1,)`` intp — match-order direct-counter rows,
            then the default action's.
        chain: the key's byte classes (:func:`class_chain`), or
            ``None`` for a table left on its bitmaps.
        source: the match-order entry bytes ``luts``, ``chain`` and
            ``boxes`` were built from, which fix them.
        boxes: the entries cut into boxes (:func:`box_index`), which
            a table without a chain classifies over when they pack
            into fewer bitmap words than its entries; else ``None``.
    """

    key_width: int
    entries: int
    words: int
    entry_ids: np.ndarray
    priorities: np.ndarray
    entry_actions: Tuple[str, ...]
    shadowed: bool
    codes: np.ndarray
    rows: np.ndarray
    chain: Optional[ClassChain]
    source: bytes = dataclasses.field(repr=False)
    boxes: Optional[BoxIndex] = dataclasses.field(default=None, repr=False)
    #: The LUTs once built, and how to build them.
    _luts: Optional[np.ndarray] = dataclasses.field(default=None, repr=False)
    _build_luts: Optional[Callable[[], np.ndarray]] = dataclasses.field(
        default=None, repr=False
    )
    #: The default action ``codes``' miss slot holds the code of.
    _miss_action: Optional[str] = dataclasses.field(default=None, repr=False)

    @classmethod
    def from_match_order(
        cls,
        build,
        first: np.ndarray,
        second: np.ndarray,
        entry_ids: Sequence[int],
        priorities: Sequence[int],
        actions: Sequence[str],
        rows: Sequence[int],
        *,
        shadowed: bool,
        boxed: bool = False,
        recent: Sequence["CompiledTable"] = (),
    ) -> "CompiledTable":
        """Compile entries listed in match order.

        ``build(first, second)`` makes the LUTs from the entries' two
        ``(E, width)`` byte matrices (:func:`value_mask_luts` or
        :func:`interval_luts`); ``boxed`` says they are values and
        masks, which a table without a chain may cut into boxes (a
        table on boxes builds its LUTs only if they are read).  A
        program in ``recent`` (earlier programs of the same table) with
        a class chain or boxes, built from equal matrices, lends its
        LUTs, chain and boxes instead, so a rule set swapped back in is
        not rebuilt.  A table on bitmaps rebuilds its LUTs as before:
        there reuse would save only the LUT build, and its batches
        gather from the LUTs (a reused wide-table LUT classified 3-5%
        slower than a fresh one in probes).
        """
        source = first.tobytes() + second.tobytes()
        count = len(entry_ids)
        for program in recent:
            if program.reusable and program.source == source:
                luts, make_luts = program._luts, program._build_luts
                chain, boxes = program.chain, program.boxes
                break
        else:
            make_luts = functools.partial(build, first, second)
            # A key's final cell fixes its winner, so a table of
            # CLASS_BUDGET entries or more is not tried on classes.
            luts = make_luts() if count < CLASS_BUDGET else None
            chain = None if luts is None else class_chain(luts, shadowed=shadowed)
            boxes = box_index(first, second) if boxed and chain is None else None
            if luts is None and boxes is None:
                luts = make_luts()
        code_of = {a: ACTION_CODES.get(a, NOT_TERMINAL) for a in set(actions)}
        codes = bytearray(map(code_of.__getitem__, actions))
        codes.append(0)  # the miss slot, set by verdict_codes
        return cls(
            key_width=first.shape[1],
            entries=count,
            words=_words_for(count),
            entry_ids=_with_miss(entry_ids, -1, np.int64),
            priorities=_with_miss(priorities, 0, np.int64),
            entry_actions=tuple(actions),
            shadowed=shadowed,
            codes=np.frombuffer(codes, dtype=np.uint8),
            rows=_with_miss(rows, DEFAULT_ROW, np.intp),
            chain=chain,
            source=source,
            boxes=boxes,
            _luts=luts,
            _build_luts=make_luts,
        )

    @property
    def luts(self) -> np.ndarray:
        """The per-byte entry masks (see the class docstring), built
        now if a table on boxes has not needed them yet."""
        if self._luts is None:
            self._luts = self._build_luts()
        return self._luts

    @property
    def reusable(self) -> bool:
        """Whether a rebuild from equal entries may borrow this program's
        LUTs, chain and boxes (it classifies without the bitmaps)."""
        return self.chain is not None or self.boxes is not None

    def verdict_codes(self, default_action: str) -> np.ndarray:
        """:attr:`codes`, its miss slot holding ``default_action``'s code.

        The default action can change without a recompile, so the miss
        cell is rewritten whenever it differs from the last one seen.
        """
        if default_action != self._miss_action:
            self.codes[-1] = ACTION_CODES.get(default_action, NOT_TERMINAL)
            self._miss_action = default_action
        return self.codes

    def classify(
        self, keys: np.ndarray, *, count_shadows: bool = False
    ) -> Tuple[np.ndarray, int]:
        """Resolve a normalised ``(n, key_width)`` key matrix.

        Returns ``(slot, shadow_hits)``: ``slot`` is the match-order
        index of each key's winning entry, ``-1`` (the miss slot of
        every per-slot array) where none matched.
        """
        n = len(keys)
        if self.entries == 0 or n == 0:
            return np.full(n, -1, dtype=np.intp), 0
        count = count_shadows and self.shadowed
        chain = self.chain
        if chain is not None:
            cell = chain.walk(keys)
            shadow_hits = int(np.count_nonzero(chain.crowded_of[cell])) if count else 0
            return chain.slot_of[cell], shadow_hits
        if self.boxes is not None:
            slot, crowded = self.boxes.classify(keys, count)
        else:
            # One gather per selected byte, intersected into survivor masks.
            survivors = np.take(self.luts[0], keys[:, 0], axis=0)
            for j in range(1, self.key_width):
                survivors &= np.take(self.luts[j], keys[:, j], axis=0)
            slot, crowded = _resolve(survivors, count)
        shadow_hits = int(np.count_nonzero(crowded)) if count else 0
        return slot, shadow_hits


def _byte_matrix(rows, width: int) -> np.ndarray:
    """``(E, width)`` uint8 matrix from an iterable of byte tuples."""
    flat = bytes(itertools.chain.from_iterable(rows))
    return np.frombuffer(flat, dtype=np.uint8).reshape(-1, width)


def compile_table(table, recent: Sequence[CompiledTable] = ()) -> CompiledTable:
    """Compile one table's installed entries to LUT bitmaps and classes.

    ``recent`` are earlier programs of the same table whose LUTs and
    class chain may be reused (see :meth:`CompiledTable.from_match_order`).

    Raises:
        TypeError: for a table kind the compiler does not know.
    """
    width = table.key_width
    if isinstance(table, (TernaryTable, RangeTable)):
        records = table.entries()  # already in match order
        ids = [r.entry_id for r in records]
        priorities = [r.priority for r in records]
        actions = [r.action for r in records]
        rows = [r.row for r in records]
        if isinstance(table, TernaryTable):
            build = value_mask_luts
            first = _byte_matrix((r.value for r in records), width)
            second = _byte_matrix((r.mask for r in records), width)
        else:
            build = interval_luts
            bounds = np.array(
                [r.ranges for r in records], dtype=np.intp
            ).reshape(-1, width, 2)
            first, second = bounds[:, :, 0], bounds[:, :, 1]
        return CompiledTable.from_match_order(
            build, first, second, ids, priorities, actions, rows,
            shadowed=True, boxed=build is value_mask_luts, recent=recent,
        )
    if isinstance(table, ExactTable):
        items = list(table._entries.items())
        keys = np.array([key for key, __ in items], dtype=np.intp)
        keys = keys.reshape(len(items), width)
        ids = [eid for __, (eid, __a) in items]
        return CompiledTable.from_match_order(
            interval_luts,
            keys,
            keys,
            ids,
            [0] * len(items),
            [action for __, (__e, action) in items],
            [table._rows[eid] for eid in ids],
            shadowed=False,
            recent=recent,
        )
    if isinstance(table, LpmTable):
        total_bits = 8 * width
        values, masks, ids, actions, rows = [], [], [], [], []
        # Longest prefix first == match order (one match per length max).
        for prefix_len in sorted(table._by_length, reverse=True):
            mask = table._prefix_mask(prefix_len)
            for value, (entry_id, action) in table._by_length[prefix_len].items():
                full = (value << (total_bits - prefix_len)) if prefix_len else 0
                values.append(full.to_bytes(width, "big"))
                masks.append(mask)
                ids.append(entry_id)
                actions.append(action)
                rows.append(table._rows[entry_id])
        value_matrix = np.frombuffer(b"".join(values), dtype=np.uint8)
        mask_matrix = np.array(masks, dtype=np.uint8).reshape(-1, width)
        return CompiledTable.from_match_order(
            value_mask_luts,
            value_matrix.reshape(-1, width),
            mask_matrix,
            ids,
            [0] * len(ids),
            actions,
            rows,
            shadowed=False,
            boxed=True,
            recent=recent,
        )
    raise TypeError(f"cannot compile table kind {type(table).__name__}")


class CompiledClassifier:
    """Per-table compiled programs, each rebuilt when its table mutates.

    Holds one :class:`CompiledTable` per table, with the table's
    ``generation`` captured when it was built.  :meth:`refresh` is the
    per-batch staleness check (one int compare per table) and rebuilds
    only the tables whose entries changed.

    Telemetry (``docs/OBSERVABILITY.md``, "Compiled classification"):
    ``compiled_compile_seconds`` / ``compiled_generation`` /
    ``compiled_tables`` / ``compiled_entries`` on each build pass,
    ``compiled_batches_total`` per table batch lookup, and
    ``compiled_recompiles_total`` once per stale table rebuilt.
    """

    def __init__(self) -> None:
        self.generation = 0
        #: ``id(table) -> (table, generation built at, program, the
        #: program before it if on classes)``; the table reference pins
        #: the id so it cannot be reused.
        self._programs: Dict[
            int, Tuple[object, int, CompiledTable, Optional[CompiledTable]]
        ] = {}
        # Instruments are resolved by the first build (see _sync_obs):
        # every lookup is preceded by one, and switches that never
        # classify never pay for the registration.
        self._obs_gen = None
        self._obs_on = False

    def _capture_obs(self) -> None:
        registry = obs.registry()
        self._obs_gen = _obs_state.generation()
        self._obs_on = registry.enabled
        self._obs_compile_seconds = registry.histogram(
            "compiled_compile_seconds", unit="s",
            help="wall-clock seconds per rule-set compile pass",
        )
        self._obs_generation = registry.gauge(
            "compiled_generation",
            help="active compiled-program generation (bumps per compile)",
        )
        self._obs_tables = registry.gauge(
            "compiled_tables",
            help="pipeline tables covered by the active compiled program",
        )
        self._obs_entries = registry.gauge(
            "compiled_entries",
            help="total entries baked into the active compiled program",
        )
        self._obs_batches = registry.counter(
            "compiled_batches_total",
            help="table batch lookups served by the compiled LUT path",
        )
        self._obs_recompiles = registry.counter(
            "compiled_recompiles_total",
            help="stale-table rebuilds triggered by entry churn",
        )

    def _sync_obs(self) -> None:
        if _obs_state._generation != self._obs_gen:
            self._capture_obs()

    def _current(self, table) -> Optional[CompiledTable]:
        """``table``'s program if it is up to date, else ``None``."""
        cached = self._programs.get(id(table))
        if cached is None or cached[1] != table.generation:
            return None
        return cached[2]

    def compile(self, tables: Sequence) -> CompileReport:
        """Build every table's program now, stale or not, from scratch."""
        return self._build(tables, reuse=False)

    def _build(self, tables: Sequence, *, reuse: bool) -> CompileReport:
        """Build ``tables``' programs; ``reuse`` lets each borrow the LUTs
        and classes of its table's last two programs where the entries
        match (a rule set swapped back in)."""
        self._sync_obs()
        start = time.perf_counter()
        recompiles = 0
        built = []
        for table in tables:
            cached = self._programs.get(id(table))
            recent = ()
            if cached is not None:
                if cached[1] != table.generation:
                    recompiles += 1
                if reuse:
                    recent = [p for p in cached[2:] if p is not None]
            program = compile_table(table, recent)
            # Keep the program before for reuse only if it has classes
            # or boxes.
            previous = cached[2] if cached and cached[2].reusable else None
            self._programs[id(table)] = (table, table.generation, program, previous)
            built.append(program)
        seconds = time.perf_counter() - start
        self.generation += 1
        if self._obs_on:
            self._obs_compile_seconds.observe(seconds)
            self._obs_generation.set(self.generation)
            self._obs_recompiles.inc(recompiles)
            self._obs_tables.set(len(self._programs))
            self._obs_entries.set(
                sum(entry[2].entries for entry in self._programs.values())
            )
        return CompileReport(
            generation=self.generation,
            tables=len(built),
            entries=sum(p.entries for p in built),
            words=sum(p.words for p in built),
            lut_bytes=sum(p._luts.nbytes for p in built if p._luts is not None),
            class_cells=sum(p.chain.cells for p in built if p.chain is not None),
            seconds=seconds,
            boxes=sum(p.boxes.boxes for p in built if p.boxes is not None),
        )

    def refresh(self, tables: Sequence) -> Optional[CompileReport]:
        """Rebuild only the tables mutated since their last build.

        Returns the build report, or ``None`` when nothing was stale.
        """
        stale = [table for table in tables if self._current(table) is None]
        return self._build(stale, reuse=True) if stale else None

    def program_for(self, table) -> CompiledTable:
        """``table``'s up-to-date program, building it if stale."""
        program = self._current(table)
        if program is None:
            self._build([table], reuse=True)
            program = self._programs[id(table)][2]
        return program

    def match(self, table, keys: np.ndarray) -> Tuple[CompiledTable, np.ndarray, int]:
        """Classify an ``(n, width)`` key matrix on ``table``'s program.

        Counts nothing in the table.  Returns ``(program, slot,
        shadow_hits)``: the up-to-date program, each key's slot in it
        (``-1``, the miss slot, where no entry matched), and the keys
        whose winner shadowed another (counted only when the table's
        observability is on).
        """
        program = self.program_for(table)
        keys = table._check_batch_keys(keys)
        slot, shadow_hits = program.classify(keys, count_shadows=table._obs_on)
        if self._obs_on:
            self._obs_batches.inc()
        return program, slot, shadow_hits

    def lookup_batch(
        self, table, keys: np.ndarray, packet_sizes: Optional[np.ndarray] = None
    ) -> BatchMatchResult:
        """Batch equivalent of ``table.lookup`` over an ``(n, width)`` matrix.

        Validates inputs with the table's own helpers and counts the
        batch with ``table._count_rows``, so direct counters and
        aggregate telemetry stay bit-identical to the scalar path.
        """
        keys = table._check_batch_keys(keys)
        sizes = table._batch_sizes(len(keys), packet_sizes)
        program, slot, shadow_hits = self.match(table, keys)
        hit = slot >= 0
        table._count_rows(program.rows[slot], sizes, shadow_hits)
        return BatchMatchResult(
            hit=hit,
            entry_id=program.entry_ids[slot],
            action_code=np.where(hit, slot + 1, 0),
            actions=(table.default_action,) + program.entry_actions,
            priority=program.priorities[slot],
        )
