"""Match-action tables with P4 semantics.

Each table matches a fixed-width key (a tuple of bytes extracted by the
switch parser) and returns an action name.  Faithful to hardware behaviour
where it matters for the evaluation:

* **capacity limits** — inserting beyond ``max_entries`` raises
  :class:`TableFullError` (the E5 resource experiment relies on this),
* **priorities** — ternary/range overlap resolved by explicit priority,
  ties by earlier insertion (the P4Runtime convention),
* **per-entry hit counters** — direct counters as in P4 ``direct_counter``.

Beyond the per-entry direct counters, every table also reports
aggregate telemetry through :mod:`repro.obs` when observability is
enabled: ``table_lookups_total`` / ``table_hits_total`` /
``table_misses_total`` counters, a ``table_entries`` occupancy gauge,
and — for the priority-ordered kinds (ternary/range) —
``table_shadow_hits_total``, counting lookups whose winning entry
shadowed at least one other matching entry, plus a static
``table_capacity_entries`` gauge so occupancy alerts can be expressed
as a ratio.  Instruments resolve the *active* default registry lazily:
each table caches its handles and re-captures them whenever the
registry generation changes (one int compare per lookup in the steady
state), so a table built before ``use_registry(...)`` still reports
into the scoped registry.  With observability disabled (the default)
the handles are shared no-ops and the shadow scan is skipped entirely,
so the hot lookup paths pay one branch.

Direct counters are two int64 arrays per table, packets and bytes,
with one *counter row* per live entry, as a P4 ``direct_counter`` is a
cell per table entry.  Row :data:`DEFAULT_ROW` counts the default
action and row :data:`SKIP_ROW` absorbs batch keys a table never saw
(decided by an earlier table); entries take rows from 2 on.  A row
freed by ``remove`` or ``clear`` is zeroed and handed to the next
``add``, so the arrays stay sized at ``max_entries`` however many
entry ids a table allocates over its life.  ``counters``,
``default_counter`` and :meth:`_BaseTable.hit_count` are read from the
arrays.

Each table's :meth:`lookup` is the scalar reference path, one key at a
time, written for clarity and used as the oracle by the differential
test suites.  Batches are classified by the compiled LUT program
(:mod:`repro.dataplane.compiled`), which the tables feed through their
``generation`` counter and which maps every match-order slot to its
entry's counter row.  A classified batch is counted by
:meth:`_BaseTable._count_rows` from the row each key reached: two
``np.bincount`` calls, so both paths leave a table in the same state.

The priority-ordered kinds (ternary, range) keep their entries sorted
by ``(-priority, insertion order)``, with those sort keys in a parallel
list.  A scalar ``add`` is one bisect of the keys and two list inserts,
and a scalar ``remove`` one id-map lookup plus a bisect; they remain
the oracle and serve single-entry writes.  Rule sets are installed in
batches, as arrays:

* :meth:`TernaryTable.add_many` checks the ``k`` new keys with two
  numpy range checks (no per-key ``_check_key``) and capacity before
  any change, hands out ids, counter rows and orders as ranges, sorts
  only the new entries (one stable ``argsort`` of their priorities)
  and merges them into match order with one bisect per distinct new
  priority plus list slices: a new entry sorts after every installed
  entry of its priority, so the installed entries' sort keys are
  neither rebuilt nor compared again.
* :meth:`_PriorityTable.remove_many` keeps the survivors with one pass
  over the entries (a set lookup each) and ``itertools.compress``.

So a change set of ``k`` adds on ``E`` installed entries costs one
record per new entry, O(k log k) numpy work and O(E) list copying in
C, a remove set one set lookup per installed entry, and each batch
one ``generation`` bump, where per-entry calls paid a key check, a
list insert or delete and a bump each.  Both batch calls leave the
table as loops of the scalar calls would (ids, rows, free-row order,
tie-break order), which ``tests/test_install_arrays.py`` checks.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
import repro.obs.registry  # noqa: F401  (module handle resolved below)
import sys

# See switch.py: the package rebinds `repro.obs.registry` to a function.
_obs_state = sys.modules["repro.obs.registry"]

__all__ = [
    "DEFAULT_ROW",
    "SKIP_ROW",
    "TableFullError",
    "EntryExistsError",
    "MatchResult",
    "BatchMatchResult",
    "ExactTable",
    "TernaryTable",
    "RangeTable",
    "LpmTable",
]


#: Direct-counter row of the default action (every miss).
DEFAULT_ROW = 0
#: Direct-counter row of batch keys a table did not look up.
SKIP_ROW = 1
#: Counter rows every table reserves before its entries' rows.
_RESERVED_ROWS = 2


class TableFullError(RuntimeError):
    """Raised when a table has no free entries."""


class EntryExistsError(ValueError):
    """Raised when adding a duplicate exact/LPM key."""


@dataclasses.dataclass
class MatchResult:
    """Outcome of a table lookup."""

    hit: bool
    action: str
    entry_id: Optional[int] = None
    priority: int = 0


@dataclasses.dataclass
class BatchMatchResult:
    """Outcome of a batch lookup over ``n`` keys.

    Attributes:
        hit: ``(n,)`` bool — whether each key hit an entry.
        entry_id: ``(n,)`` int64 — the matched entry id, ``-1`` on miss.
        action_code: ``(n,)`` int64 — index into :attr:`actions`.
        actions: code → action name; code 0 is always the table's
            default action (applied on miss).
        priority: ``(n,)`` int64 — matched entry priority (0 on miss /
            for priority-less table kinds).
    """

    hit: np.ndarray
    entry_id: np.ndarray
    action_code: np.ndarray
    actions: Tuple[str, ...]
    priority: np.ndarray


@dataclasses.dataclass
class _Counter:
    """One direct counter, as read from a table's counter arrays."""

    packets: int = 0
    bytes: int = 0


class _BaseTable:
    """Shared bookkeeping: capacity, default action, counters."""

    def __init__(
        self,
        name: str,
        key_width: int,
        *,
        max_entries: int = 1024,
        default_action: str = "allow",
    ):
        if key_width < 1:
            raise ValueError("key_width must be >= 1")
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.name = name
        self.key_width = key_width
        self.max_entries = max_entries
        self.default_action = default_action
        self._next_id = 0
        #: Direct counters, indexed by counter row (see module docstring).
        self._packets = np.zeros(max_entries + _RESERVED_ROWS, dtype=np.int64)
        self._bytes = np.zeros(max_entries + _RESERVED_ROWS, dtype=np.int64)
        #: entry id -> counter row, for every live entry.
        self._rows: Dict[int, int] = {}
        self._next_row = _RESERVED_ROWS
        #: Rows freed (and zeroed) by ``remove``, handed out again
        #: before new ones.
        self._free_rows: List[int] = []
        #: monotone entry-mutation counter — every install/remove bumps
        #: it, so the LUT programs in :mod:`repro.dataplane.compiled`
        #: detect staleness with one int compare.
        self.generation = 0
        self._capture_obs()

    def _capture_obs(self) -> None:
        """(Re)resolve the active default registry and cache instruments.

        Called from ``__init__`` and from :meth:`_sync_obs` whenever the
        registry generation moves, so tables built outside a
        ``use_registry(...)`` scope still report into it (see module
        docstring).
        """
        registry = obs.registry()
        self._obs_gen = _obs_state.generation()
        self._obs_on = registry.enabled
        name = self.name
        labels = {"table": name}
        self._obs_lookups = registry.counter(
            "table_lookups_total", labels,
            help="keys looked up in this match-action table",
        )
        self._obs_hits = registry.counter(
            "table_hits_total", labels,
            help="lookups that matched an installed entry",
        )
        self._obs_misses = registry.counter(
            "table_misses_total", labels,
            help="lookups that fell through to the default action",
        )
        self._obs_shadow = registry.counter(
            "table_shadow_hits_total", labels,
            help="hits whose winner shadowed >=1 other matching entry "
            "(ternary/range kinds only)",
        )
        self._obs_entries = registry.gauge(
            "table_entries", labels, help="installed entries in the table"
        )
        capacity = registry.gauge(
            "table_capacity_entries", labels,
            help="configured max_entries for the table (static; pairs "
            "with table_entries for occupancy-ratio alerts)",
        )
        if self._obs_on:
            capacity.set(self.max_entries)
            try:
                self._obs_entries.set(len(self))
            except (AttributeError, NotImplementedError):
                pass  # first capture runs before subclass storage exists

    def _sync_obs(self) -> None:
        # One int compare in the steady state; see registry._generation.
        if _obs_state._generation != self._obs_gen:
            self._capture_obs()

    def __len__(self) -> int:
        raise NotImplementedError

    @property
    def free_entries(self) -> int:
        return self.max_entries - len(self)

    def _allocate_id(self) -> Tuple[int, int]:
        """A new entry's id and counter row."""
        if len(self) >= self.max_entries:
            raise TableFullError(
                f"table {self.name!r} is full ({self.max_entries} entries)"
            )
        self._next_id += 1
        if self._free_rows:
            row = self._free_rows.pop()
        else:
            row = self._next_row
            self._next_row += 1
        self._rows[self._next_id] = row
        return self._next_id, row

    def _allocate_ids(self, count: int) -> Tuple[range, List[int]]:
        """``count`` new entries' ids and counter rows, as ``count``
        :meth:`_allocate_id` calls would hand them out.

        Raises:
            TableFullError: before any change, if ``count`` more
                entries do not fit.
        """
        if len(self) + count > self.max_entries:
            raise TableFullError(
                f"table {self.name!r} is full ({self.max_entries} entries)"
            )
        ids = range(self._next_id + 1, self._next_id + count + 1)
        self._next_id += count
        free = self._free_rows
        reused = min(count, len(free))
        rows = free[len(free) - reused :][::-1]  # popped from the end
        del free[len(free) - reused :]
        fresh = count - reused
        rows.extend(range(self._next_row, self._next_row + fresh))
        self._next_row += fresh
        self._rows.update(zip(ids, rows))
        return ids, rows

    def _release(self, entry_id: int) -> None:
        """Zero a removed entry's counter row and free it for the next ``add``."""
        row = self._rows.pop(entry_id)
        self._packets[row] = self._bytes[row] = 0
        self._free_rows.append(row)

    def clear(self) -> None:
        """Remove every entry and counter at once (controller rollbacks)."""
        self._drop_entries()
        self._rows.clear()
        self._free_rows.clear()
        self._packets[_RESERVED_ROWS : self._next_row] = 0
        self._bytes[_RESERVED_ROWS : self._next_row] = 0
        self._next_row = _RESERVED_ROWS
        self._entries_changed()

    def _drop_entries(self) -> None:
        raise NotImplementedError


    def _check_key(self, key: Sequence[int]) -> Tuple[int, ...]:
        # _sync_obs inlined: first call on every scalar lookup/add path,
        # so skip the method-call overhead and do just the compare.
        if _obs_state._generation != self._obs_gen:
            self._capture_obs()
        key = tuple(map(int, key))
        if len(key) != self.key_width:
            raise ValueError(
                f"table {self.name!r}: key width {len(key)} != {self.key_width}"
            )
        if min(key) < 0 or max(key) > 255:
            raise ValueError("key bytes must be in [0, 255]")
        return key

    def _check_keys(self, keys, count: int) -> np.ndarray:
        """:meth:`_check_key` for ``count`` keys at once.

        Returns them as a ``(count, key_width)`` uint8 matrix; raises
        the errors :meth:`_check_key` raises, with its messages.
        """
        keys = np.asarray(keys)
        if count == 0 and keys.size == 0:
            return np.empty((0, self.key_width), dtype=np.uint8)
        if keys.ndim != 2 or len(keys) != count:
            raise ValueError(
                f"table {self.name!r}: expected {count} keys, got shape {keys.shape}"
            )
        if keys.shape[1] != self.key_width:
            raise ValueError(
                f"table {self.name!r}: key width {keys.shape[1]} != {self.key_width}"
            )
        if keys.dtype != np.uint8:
            if keys.min() < 0 or keys.max() > 255:
                raise ValueError("key bytes must be in [0, 255]")
            keys = keys.astype(np.uint8)
        return keys

    def _count(self, row: int, packet_size: int) -> None:
        """Bump counter row ``row`` for one scalar lookup."""
        self._packets[row] += 1
        self._bytes[row] += packet_size
        if self._obs_on:
            self._obs_lookups.inc()
            (self._obs_misses if row == DEFAULT_ROW else self._obs_hits).inc()

    def _counter(self, row: int) -> _Counter:
        return _Counter(int(self._packets[row]), int(self._bytes[row]))

    @property
    def counters(self) -> Dict[int, _Counter]:
        """``{entry_id: counter}`` of every live entry (a read-only copy)."""
        rows = list(self._rows.values())
        return {
            entry_id: _Counter(packets, size)
            for entry_id, packets, size in zip(
                self._rows, self._packets[rows].tolist(), self._bytes[rows].tolist()
            )
        }

    @property
    def default_counter(self) -> _Counter:
        """The default action's counter: every lookup that missed."""
        return self._counter(DEFAULT_ROW)

    def hit_count(self, entry_id: int) -> int:
        """Packets that hit ``entry_id`` so far."""
        return self._counter(self._rows[entry_id]).packets

    def hit_counts(self, entry_ids: Sequence[int]) -> List[int]:
        """Packets that hit each of ``entry_ids`` so far, in order."""
        rows = [self._rows[entry_id] for entry_id in entry_ids]
        return self._packets[rows].tolist()

    # -- batch support -----------------------------------------------------

    def _entries_changed(self) -> None:
        """Advance :attr:`generation` (and refresh the occupancy gauge).

        Called after every entry mutation, which makes it the single
        choke point where ``table_entries`` can be kept current and
        where compiled programs learn they are stale.
        """
        self.generation += 1
        self._sync_obs()
        if self._obs_on:
            self._obs_entries.set(len(self))

    def _check_batch_keys(self, keys: np.ndarray) -> np.ndarray:
        """Validate and normalise an ``(n, key_width)`` key matrix."""
        self._sync_obs()  # first call on every batch lookup
        keys = np.asarray(keys)
        if keys.ndim != 2 or keys.shape[1] != self.key_width:
            raise ValueError(
                f"table {self.name!r}: key matrix must be (n, {self.key_width}), "
                f"got {keys.shape}"
            )
        if keys.dtype != np.uint8:
            if keys.size and (keys.min() < 0 or keys.max() > 255):
                raise ValueError("key bytes must be in [0, 255]")
            keys = keys.astype(np.uint8)
        return np.ascontiguousarray(keys)

    def _batch_sizes(self, n: int, packet_sizes) -> np.ndarray:
        if packet_sizes is None:
            return np.zeros(n, dtype=np.int64)
        sizes = np.asarray(packet_sizes, dtype=np.int64)
        if sizes.shape != (n,):
            raise ValueError(f"packet_sizes must be ({n},), got {sizes.shape}")
        return sizes

    def _count_rows(
        self, rows: np.ndarray, sizes: np.ndarray, shadow_hits: int = 0
    ) -> None:
        """Count one batch: per-key :meth:`_count` calls, as arrays.

        Args:
            rows: ``(n,)`` the counter row each key of the batch reached
                (:data:`DEFAULT_ROW` on a miss, :data:`SKIP_ROW` for a
                key an earlier table decided).
            sizes: ``(n,)`` int64 packet sizes.
            shadow_hits: keys whose winning entry shadowed another
                (counted into ``table_shadow_hits_total``).
        """
        packets = np.bincount(rows)
        span = len(packets)
        self._packets[:span] += packets
        # Per-batch byte sums are far below 2**53, so float64 is exact.
        self._bytes[:span] += np.bincount(rows, weights=sizes).astype(np.int64)
        self._sync_obs()
        if self._obs_on and span:
            misses = int(packets[DEFAULT_ROW])
            lookups = len(rows) - (int(packets[SKIP_ROW]) if span > SKIP_ROW else 0)
            self._obs_lookups.inc(lookups)
            self._obs_hits.inc(lookups - misses)
            self._obs_misses.inc(misses)
            if shadow_hits:
                self._obs_shadow.inc(shadow_hits)


class ExactTable(_BaseTable):
    """Exact match on the whole key (hash-table in hardware)."""

    def __init__(self, name: str, key_width: int, **kwargs):
        super().__init__(name, key_width, **kwargs)
        self._entries: Dict[Tuple[int, ...], Tuple[int, str]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, key: Sequence[int], action: str) -> int:
        """Install an exact-match entry; returns its entry id."""
        key = self._check_key(key)
        if key in self._entries:
            raise EntryExistsError(f"duplicate exact key {key}")
        entry_id, __ = self._allocate_id()
        self._entries[key] = (entry_id, action)
        self._entries_changed()
        return entry_id

    def remove(self, entry_id: int) -> None:
        """Delete an entry (and its counter) by id."""
        for key, (eid, __) in list(self._entries.items()):
            if eid == entry_id:
                del self._entries[key]
                self._release(entry_id)
                self._entries_changed()
                return
        raise KeyError(f"no entry {entry_id}")

    def _drop_entries(self) -> None:
        self._entries.clear()

    def lookup(self, key: Sequence[int], packet_size: int = 0) -> MatchResult:
        """Exact hash lookup, bumping the matched/default direct counter."""
        key = self._check_key(key)
        found = self._entries.get(key)
        if found is None:
            self._count(DEFAULT_ROW, packet_size)
            return MatchResult(False, self.default_action)
        self._count(self._rows[found[0]], packet_size)
        return MatchResult(True, found[1], entry_id=found[0])


@dataclasses.dataclass
class _TernaryEntryRecord:
    entry_id: int
    value: Tuple[int, ...]
    mask: Tuple[int, ...]
    priority: int
    action: str
    order: int  # insertion order, used as the tie-break
    row: int  # direct-counter row


@dataclasses.dataclass
class _RangeEntryRecord:
    entry_id: int
    ranges: Tuple[Tuple[int, int], ...]
    priority: int
    action: str
    order: int
    row: int


def _match_order(record) -> Tuple[int, int]:
    """Sort key of the priority-ordered kinds: higher priority, then earlier add."""
    return (-record.priority, record.order)


class _PriorityTable(_BaseTable):
    """Entries kept in match order; the first matching entry wins.

    Subclasses supply the record type and the scalar ``_matches`` test.
    """

    def __init__(self, name: str, key_width: int, **kwargs):
        super().__init__(name, key_width, **kwargs)
        self._entries: list = []
        #: ``_match_order`` of each of ``_entries``, in the same order.
        self._keys: List[Tuple[int, int]] = []
        self._by_id: dict = {}
        self._order = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _next_order(self) -> int:
        self._order += 1
        return self._order

    def _install(self, record) -> int:
        key = _match_order(record)
        index = bisect.bisect_right(self._keys, key)
        self._keys.insert(index, key)
        self._entries.insert(index, record)
        self._by_id[record.entry_id] = record
        self._entries_changed()
        return record.entry_id

    def _install_many(self, records: list, priorities: np.ndarray) -> None:
        """Merge ``records``, each newer than every installed entry, into
        match order, as one :meth:`_install` per record would."""
        ranked = np.argsort(-priorities, kind="stable")
        new = [records[i] for i in ranked.tolist()]
        keys, entries = self._keys, self._entries
        merged_keys: List[Tuple[int, int]] = []
        merged: list = []
        done = 0
        # One bisect per distinct priority: a new entry goes after every
        # installed entry of equal or higher priority.
        band = priorities[ranked]
        bounds = [0, *(np.flatnonzero(band[1:] != band[:-1]) + 1).tolist(), len(new)]
        for lo, hi in zip(bounds, bounds[1:]):
            priority = new[lo].priority
            cut = bisect.bisect_left(keys, (1 - priority,))
            merged_keys += keys[done:cut]
            merged += entries[done:cut]
            group = new[lo:hi]
            merged_keys += [(-priority, record.order) for record in group]
            merged += group
            done = cut
        merged_keys += keys[done:]
        merged += entries[done:]
        self._keys, self._entries = merged_keys, merged
        self._by_id.update((record.entry_id, record) for record in records)
        self._entries_changed()

    def remove_many(self, entry_ids) -> None:
        """Delete entries (and their counters) by id, in order.

        Leaves the table as one :meth:`remove` per id would, with one
        ``generation`` bump.

        Raises:
            KeyError: before any change, for an id that is not
                installed or is listed twice.
        """
        ids = np.asarray(entry_ids, dtype=np.int64).tolist()
        if not ids:
            return
        by_id = self._by_id
        doomed = set(ids)
        if len(doomed) != len(ids) or not doomed <= by_id.keys():
            seen = set()
            for entry_id in ids:
                if entry_id not in by_id or entry_id in seen:
                    raise KeyError(f"no entry {entry_id}")
                seen.add(entry_id)
        for entry_id in ids:
            del by_id[entry_id]
        # One filter pass keeps the survivors in match order.
        keep = [record.entry_id not in doomed for record in self._entries]
        self._keys = list(itertools.compress(self._keys, keep))
        self._entries = list(itertools.compress(self._entries, keep))
        rows = [self._rows.pop(entry_id) for entry_id in ids]
        self._packets[rows] = 0
        self._bytes[rows] = 0
        self._free_rows.extend(rows)
        self._entries_changed()

    def remove(self, entry_id: int) -> None:
        """Delete an entry (and its counter) by id."""
        record = self._by_id.pop(entry_id, None)
        if record is None:
            raise KeyError(f"no entry {entry_id}")
        index = bisect.bisect_left(self._keys, _match_order(record))
        del self._keys[index]
        del self._entries[index]
        self._release(entry_id)
        self._entries_changed()

    def _drop_entries(self) -> None:
        self._entries.clear()
        self._keys.clear()
        self._by_id.clear()

    def entries(self) -> list:
        """Current entries in match order (for inspection/tests)."""
        return list(self._entries)

    def lookup(self, key: Sequence[int], packet_size: int = 0) -> MatchResult:
        """First match in priority order, bumping its direct counter."""
        key = self._check_key(key)
        for index, record in enumerate(self._entries):
            if self._matches(key, record):
                result = MatchResult(
                    True, record.action, entry_id=record.entry_id,
                    priority=record.priority,
                )
                self._count(record.row, packet_size)
                # The shadow scan looks past the winner, so it only runs
                # with observability on; verdicts are unaffected.
                if self._obs_on and any(
                    self._matches(key, later)
                    for later in self._entries[index + 1 :]
                ):
                    self._obs_shadow.inc()
                return result
        self._count(DEFAULT_ROW, packet_size)
        return MatchResult(False, self.default_action)


class TernaryTable(_PriorityTable):
    """TCAM-style value/mask match with priorities.

    Overlap resolution is part of the table's contract, not an
    implementation accident, because the scalar scan here and the LUT
    program in :mod:`repro.dataplane.compiled` must agree bit for bit:

    * the highest ``priority`` wins among matching entries;
    * **equal priorities tie-break by insertion order** — the earliest
      ``add`` wins, the P4Runtime convention.  The tie-break follows
      the per-table ``add`` sequence (``_order``), *not* entry ids, and
      survives interleaved removes: re-adding an entry puts it at the
      back of its priority band.

    ``tests/test_tables.py::TestTernaryTieBreak`` locks this contract
    across both paths.
    """

    def add(
        self,
        value: Sequence[int],
        mask: Sequence[int],
        action: str,
        *,
        priority: int = 0,
    ) -> int:
        """Install a value/mask entry; higher ``priority`` wins overlaps."""
        value = self._check_key(value)
        mask = self._check_key(mask)
        entry_id, row = self._allocate_id()
        return self._install(
            _TernaryEntryRecord(
                entry_id, value, mask, priority, action, self._next_order(), row
            )
        )

    def add_many(
        self,
        values,
        masks,
        actions: Sequence[str],
        priorities,
    ) -> np.ndarray:
        """Install entries as one batch; returns their ids, in order.

        Args:
            values / masks: ``(E, key_width)`` key matrices.
            actions: ``E`` action names.
            priorities: ``E`` priorities.

        Leaves the table as one :meth:`add` per entry in order would
        (entry ids, counter rows, tie-break order), but validates the
        keys once and bumps ``generation`` once.

        Raises:
            ValueError: for a key :meth:`add` would refuse, with its
                message, before any change.
            TableFullError: before any change, if the entries do not
                all fit.
        """
        count = len(actions)
        values = self._check_keys(values, count)
        masks = self._check_keys(masks, count)
        priorities = np.asarray(priorities, dtype=np.int64).reshape(-1)
        if len(priorities) != count:
            raise ValueError(
                f"table {self.name!r}: {len(priorities)} priorities for {count} entries"
            )
        if count == 0:
            return np.empty(0, dtype=np.int64)
        ids, rows = self._allocate_ids(count)
        orders = range(self._order + 1, self._order + count + 1)
        self._order += count
        records = list(
            map(
                _TernaryEntryRecord,
                ids,
                map(tuple, values.tolist()),
                map(tuple, masks.tolist()),
                priorities.tolist(),
                actions,
                orders,
                rows,
            )
        )
        self._install_many(records, priorities)
        return np.arange(ids.start, ids.stop, dtype=np.int64)

    @staticmethod
    def _matches(key, record) -> bool:
        """Scalar value/mask match of one key against one entry."""
        return all(
            (k & m) == (v & m)
            for k, v, m in zip(key, record.value, record.mask)
        )

    def tcam_bits(self) -> int:
        """TCAM cost: 2 × key bits × entries (value and mask both stored)."""
        return 2 * 8 * self.key_width * len(self._entries)


class RangeTable(_PriorityTable):
    """Per-byte range match with priorities (Tofino range match units)."""

    def add(
        self,
        ranges: Sequence[Tuple[int, int]],
        action: str,
        *,
        priority: int = 0,
    ) -> int:
        """Install per-byte ``[lo, hi]`` ranges; ``priority`` breaks overlaps."""
        if len(ranges) != self.key_width:
            raise ValueError(
                f"table {self.name!r}: {len(ranges)} ranges != width {self.key_width}"
            )
        for lo, hi in ranges:
            if not 0 <= lo <= hi <= 255:
                raise ValueError(f"invalid byte range [{lo}, {hi}]")
        entry_id, row = self._allocate_id()
        return self._install(
            _RangeEntryRecord(
                entry_id, tuple((int(l), int(h)) for l, h in ranges),
                priority, action, self._next_order(), row,
            )
        )

    @staticmethod
    def _matches(key, record) -> bool:
        """Scalar per-byte interval match of one key against one entry."""
        return all(lo <= k <= hi for k, (lo, hi) in zip(key, record.ranges))


class LpmTable(_BaseTable):
    """Longest-prefix match over the concatenated key bits."""

    def __init__(self, name: str, key_width: int, **kwargs):
        super().__init__(name, key_width, **kwargs)
        # prefix_len -> {prefix_bits_int: (entry_id, action)}
        self._by_length: Dict[int, Dict[int, Tuple[int, str]]] = {}

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_length.values())

    def add(self, key: Sequence[int], prefix_len: int, action: str) -> int:
        """Install a ``key/prefix_len`` route; longest prefix wins lookups."""
        key = self._check_key(key)
        total_bits = 8 * self.key_width
        if not 0 <= prefix_len <= total_bits:
            raise ValueError(f"prefix_len {prefix_len} out of [0, {total_bits}]")
        value = int.from_bytes(bytes(key), "big") >> (total_bits - prefix_len) if prefix_len else 0
        bucket = self._by_length.setdefault(prefix_len, {})
        if value in bucket:
            raise EntryExistsError(f"duplicate prefix {value}/{prefix_len}")
        entry_id, __ = self._allocate_id()
        bucket[value] = (entry_id, action)
        self._entries_changed()
        return entry_id

    def remove(self, entry_id: int) -> None:
        for bucket in self._by_length.values():
            for value, (eid, __) in list(bucket.items()):
                if eid == entry_id:
                    del bucket[value]
                    self._release(entry_id)
                    self._entries_changed()
                    return
        raise KeyError(f"no entry {entry_id}")

    def _drop_entries(self) -> None:
        self._by_length.clear()

    def lookup(self, key: Sequence[int], packet_size: int = 0) -> MatchResult:
        """Longest-prefix scalar lookup, bumping direct counters."""
        key = self._check_key(key)
        total_bits = 8 * self.key_width
        key_int = int.from_bytes(bytes(key), "big")
        for prefix_len in sorted(self._by_length, reverse=True):
            bucket = self._by_length[prefix_len]
            value = key_int >> (total_bits - prefix_len) if prefix_len else 0
            found = bucket.get(value)
            if found is not None:
                self._count(self._rows[found[0]], packet_size)
                return MatchResult(True, found[1], entry_id=found[0])
        self._count(DEFAULT_ROW, packet_size)
        return MatchResult(False, self.default_action)

    def _prefix_mask(self, prefix_len: int) -> np.ndarray:
        """Byte mask with the leading ``prefix_len`` bits set."""
        mask = np.zeros(self.key_width, dtype=np.uint8)
        full, rem = divmod(prefix_len, 8)
        mask[:full] = 0xFF
        if rem:
            mask[full] = (0xFF << (8 - rem)) & 0xFF
        return mask
