"""Compiled classification: per-byte LUT bitmaps and cross-producted classes.

This is the switch's batch classifier.  Each table's installed rule set
compiles to **per-selected-byte 256-slot lookup tables whose values are
entry bitmasks** (the DPDK-ACL trick), so a key's matching entries are
the AND of one LUT row per key byte.  Where the table is small enough,
those rows are folded further into **equivalence classes** (Recursive
Flow Classification, Gupta and McKeown, SIGCOMM 1999), and a key is
classified by a few small integer gathers with no bitmap work at all.

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
  stays on its bitmaps: the bitmap AND is the no-grouping case of the
  same program, not a second classifier.  ``wide_table``'s 5,202
  entries, with 155–168 classes per byte, are one.

A table on classes costs ``key_width`` gathers of small int arrays per
batch; the bench's learned table (11 rules, 1,076 entries, 6 bytes)
builds products of 99, 518, 346, 1,557 and 3,075 cells.  The LUTs stay
the classes' source and part of every program.

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
``tests/test_tables_property.py`` lock that equivalence, and
``tests/test_class_tables.py`` holds classes, bitmaps and the scalar
scan equal on both sides of the budget.

Lifecycle (see docs/ARCHITECTURE.md, "Compiled classification"): a
program is derived state.  Every entry install/remove bumps the owning
table's ``generation``; before each batch the classifier rebuilds only
the tables whose generation moved since their program was built.  LUTs
and classes depend on nothing but the entries' match-order bytes, so a
lazy rebuild of a table on classes whose bytes equal one of the table's
last two programs' (a rule set swapped back in) reuses that program's
LUTs and chain and rebuilds only the per-slot arrays.
:meth:`repro.dataplane.switch.Switch.compile` builds every table's
program now, from scratch, for callers that want the cost up front.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import sys
import time
from typing import Dict, Optional, Sequence, Tuple

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
    lut_bytes: int
    #: Cross-product cells of the class chains built (0: all on bitmaps).
    class_cells: int
    seconds: float

    def __str__(self) -> str:
        return (
            f"gen {self.generation}: {self.tables} tables, "
            f"{self.entries} entries in {self.words} words "
            f"({self.lut_bytes} LUT bytes, {self.class_cells} class cells), "
            f"{self.seconds * 1e3:.2f} ms"
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


def class_chain(luts: np.ndarray, entries: int, *, shadowed: bool) -> Optional[ClassChain]:
    """Cross-product ``(width, 256, W)`` LUTs into a :class:`ClassChain`.

    Returns ``None`` — the table stays on its bitmaps — when any
    product would exceed :data:`CLASS_BUDGET` cells.  That is decided
    before forming a product: a key's final cell fixes its winner, so
    a table of ``CLASS_BUDGET`` entries or more is not tried at all,
    and each product's size is known from the class counts before its
    masks are ANDed.
    """
    width, __, words = luts.shape
    if entries >= CLASS_BUDGET:
        return None
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


def _with_miss(values: Sequence, miss, dtype) -> np.ndarray:
    """``values`` as a ``dtype`` array, plus the miss slot's ``miss``."""
    out = np.empty(len(values) + 1, dtype=dtype)
    out[:-1] = values
    out[-1] = miss
    return out


@dataclasses.dataclass
class CompiledTable:
    """One table's rule set, compiled to per-byte LUT bitmaps and, within
    the budget, a class chain that classifies without them.

    Attributes:
        key_width: bytes per key (LUT count).
        entries: installed entry count at compile time.
        words: uint64 words per bitmask (``ceil(entries / 64)``).
        luts: ``(key_width, 256, words)`` uint64 — per-byte entry masks.
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
        source: the match-order entry bytes ``luts`` and ``chain`` were
            built from, which fix them.
    """

    key_width: int
    entries: int
    words: int
    luts: np.ndarray
    entry_ids: np.ndarray
    priorities: np.ndarray
    entry_actions: Tuple[str, ...]
    shadowed: bool
    codes: np.ndarray
    rows: np.ndarray
    chain: Optional[ClassChain]
    source: bytes = dataclasses.field(repr=False)
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
        recent: Sequence["CompiledTable"] = (),
    ) -> "CompiledTable":
        """Compile entries listed in match order.

        ``build(first, second)`` makes the LUTs from the entries' two
        ``(E, width)`` byte matrices (:func:`value_mask_luts` or
        :func:`interval_luts`).  A program in ``recent`` (earlier
        programs of the same table) with a class chain, built from
        equal matrices, lends its LUTs and chain instead, so a rule set
        swapped back in is not rebuilt.  A table on bitmaps rebuilds
        its LUTs as before: there reuse would save only the LUT build,
        and its batches gather from the LUTs (a reused wide-table LUT
        classified 3-5% slower than a fresh one in probes).
        """
        source = first.tobytes() + second.tobytes()
        for program in recent:
            if program.chain is not None and program.source == source:
                luts, chain = program.luts, program.chain
                break
        else:
            luts = build(first, second)
            chain = class_chain(luts, len(entry_ids), shadowed=shadowed)
        width, __, words = luts.shape
        code_of = {a: ACTION_CODES.get(a, NOT_TERMINAL) for a in set(actions)}
        codes = bytearray(map(code_of.__getitem__, actions))
        codes.append(0)  # the miss slot, set by verdict_codes
        return cls(
            key_width=width,
            entries=len(entry_ids),
            words=words,
            luts=luts,
            entry_ids=_with_miss(entry_ids, -1, np.int64),
            priorities=_with_miss(priorities, 0, np.int64),
            entry_actions=tuple(actions),
            shadowed=shadowed,
            codes=np.frombuffer(codes, dtype=np.uint8),
            rows=_with_miss(rows, DEFAULT_ROW, np.intp),
            chain=chain,
            source=source,
        )

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
            shadowed=True, recent=recent,
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
            # Keep the program before for reuse only if it has classes.
            previous = cached[2] if cached and cached[2].chain is not None else None
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
            lut_bytes=sum(p.luts.nbytes for p in built),
            class_cells=sum(p.chain.cells for p in built if p.chain is not None),
            seconds=seconds,
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
