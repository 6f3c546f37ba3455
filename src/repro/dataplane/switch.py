"""Behavioural-model software switch (bmv2-style).

The switch models the pieces of a P4 target the evaluation needs:

* a **parser** configured with byte offsets (the P4 program slices the same
  offsets out of the packet; bytes past the end of a short packet read 0,
  matching the zero-initialised header convention),
* an **ingress pipeline** of match-action tables applied in order until a
  terminal action (``drop`` / ``allow``) decides the packet,
* **registers** (named integer arrays, as in P4 ``register<>``),
* port and drop **statistics**.

Two data paths share these semantics:

* :meth:`Switch.process` — the scalar reference path, one packet at a
  time through the pipeline;
* :meth:`Switch.process_batch` — extracts every match key in one pass
  and classifies each table through its compiled per-byte LUT bitmaps
  (:mod:`repro.dataplane.compiled`), decided-packet masking preserving
  the scalar path's first-table-wins semantics bit for bit.

The compiled programs are derived state: entry churn bumps a table's
``generation`` and the next batch rebuilds just that table's program.
Verdicts, counters, and decision records are bit-identical to the
scalar path (``tests/test_batch_differential.py``,
``tests/test_compiled_differential.py``).

The batch path's verdicts are columnar: a :class:`VerdictBatch` holds
action codes, table indices and entry ids as arrays and builds
:class:`Verdict` objects only when someone iterates it.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import operator
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
import repro.obs.registry  # noqa: F401  (module handle resolved below)
import sys

# The live registry module — the package attribute `repro.obs.registry`
# is rebound to the registry() *function* by the package __init__, so a
# dotted import can't name the module directly.
_obs_state = sys.modules["repro.obs.registry"]
from repro.obs.events import KIND_DECISION, DecisionRecord
from repro.net.frames import FrameRows
from repro.net.packet import Packet
from repro.dataplane.compiled import CompiledClassifier, CompileReport
from repro.dataplane.tables import (
    ExactTable,
    LpmTable,
    MatchResult,
    RangeTable,
    TernaryTable,
)

__all__ = [
    "ACTION_CODES",
    "CODE_ACTIONS",
    "SwitchConfig",
    "Switch",
    "Verdict",
    "VerdictBatch",
    "ClassifiedArrays",
    "Register",
]

AnyTable = Union[ExactTable, TernaryTable, RangeTable, LpmTable]

#: Actions with pipeline-terminating semantics.  ``quarantine`` forwards to
#: a dedicated inspection port instead of the normal egress.
TERMINAL_ACTIONS = ("drop", "allow", "quarantine")

#: Verdict action <-> uint8 code, the columnar verdict currency (and the
#: process backend's wire format).
CODE_ACTIONS: Tuple[str, ...] = ("allow", "drop", "quarantine")
ACTION_CODES: Dict[str, int] = {a: i for i, a in enumerate(CODE_ACTIONS)}
_DROP, _QUARANTINE = ACTION_CODES["drop"], ACTION_CODES["quarantine"]
#: Code of a table action that does not end the pipeline.
_NOT_TERMINAL = 255
_DATA = operator.attrgetter("data")
_TIMESTAMP = operator.attrgetter("timestamp")


@dataclasses.dataclass
class SwitchConfig:
    """Static switch configuration.

    Attributes:
        key_offsets: byte offsets the parser extracts, in key order
            (identical to the rule set's offsets).
        pipeline_depth: maximum tables in the ingress pipeline.
    """

    key_offsets: Tuple[int, ...]
    pipeline_depth: int = 4

    def __post_init__(self) -> None:
        if not self.key_offsets:
            raise ValueError("key_offsets must be non-empty")
        if len(set(self.key_offsets)) != len(self.key_offsets):
            raise ValueError("key_offsets must be unique")


@dataclasses.dataclass(frozen=True)
class Verdict:
    """Per-packet pipeline outcome.

    ``tenant`` is stamped by the fleet layer when the packet was served
    under a multi-tenant deployment; single-tenant paths leave it
    ``None`` so existing comparisons stay bit-identical.
    """

    action: str
    table: Optional[str] = None
    entry_id: Optional[int] = None
    tenant: Optional[str] = None

    @property
    def dropped(self) -> bool:
        return self.action == "drop"


class VerdictBatch(collections.abc.Sequence):
    """The verdicts of one batch, as arrays.

    A read-only ``Sequence[Verdict]``: iterating or indexing builds one
    :class:`Verdict` per distinct outcome on first use and shares it
    across every packet with that outcome, so callers that want objects
    get them, and callers that count or store verdicts use the arrays.

    Attributes:
        codes: ``(n,)`` uint8 action codes in :data:`CODE_ACTIONS` order.
        table_idx: ``(n,)`` int16 pipeline index of the deciding table,
            ``-1`` when no table decided (default ``allow``).
        entries: ``(n,)`` int64 matched entry id, ``-1`` for none.
        table_names: the pipeline's table names, indexed by ``table_idx``.
        tenant: stamped on every built :class:`Verdict` (fleet serving).
    """

    __slots__ = ("codes", "table_idx", "entries", "table_names", "tenant", "_objects")

    def __init__(
        self,
        codes: np.ndarray,
        table_idx: np.ndarray,
        entries: np.ndarray,
        table_names: Sequence[str],
        tenant: Optional[str] = None,
    ):
        self.codes = codes
        self.table_idx = table_idx
        self.entries = entries
        self.table_names = tuple(table_names)
        self.tenant = tenant
        self._objects: Optional[np.ndarray] = None

    @classmethod
    def empty(cls, table_names: Sequence[str] = ()) -> "VerdictBatch":
        return cls(
            np.zeros(0, dtype=np.uint8),
            np.zeros(0, dtype=np.int16),
            np.zeros(0, dtype=np.int64),
            table_names,
        )

    def __len__(self) -> int:
        return self.codes.shape[0]

    def objects(self) -> np.ndarray:
        """The verdicts as an object array, one shared object per outcome."""
        if self._objects is None:
            names = self.table_names
            # One int64 key per outcome: entry ids are >= -1 and there
            # are few tables and codes, so the packing cannot collide.
            stride = 3 * (len(names) + 1)
            key = (self.entries + 1) * stride + (
                (self.table_idx.astype(np.int64) + 1) * 3 + self.codes
            )
            outcomes, first, inverse = np.unique(
                key, return_index=True, return_inverse=True
            )
            shared = np.empty(len(outcomes), dtype=object)
            for slot, row in enumerate(first.tolist()):
                table = int(self.table_idx[row])
                entry = int(self.entries[row])
                shared[slot] = Verdict(
                    CODE_ACTIONS[self.codes[row]],
                    table=names[table] if table >= 0 else None,
                    entry_id=entry if entry >= 0 else None,
                    tenant=self.tenant,
                )
            self._objects = shared[inverse.reshape(-1)]
        return self._objects

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.objects()[index].tolist()
        return self.objects()[index]

    def __iter__(self):
        return iter(self.objects().tolist())

    def with_tenant(self, tenant: Optional[str]) -> "VerdictBatch":
        """The same arrays, building verdicts stamped with ``tenant``."""
        return VerdictBatch(
            self.codes, self.table_idx, self.entries, self.table_names, tenant
        )

    def counts(self) -> np.ndarray:
        """Packets per action code, ``(len(CODE_ACTIONS),)`` int64."""
        return np.bincount(self.codes, minlength=len(CODE_ACTIONS))


class ClassifiedArrays(collections.abc.Sequence):
    """``(action, table, entry_id)``, as :meth:`Switch.classify_arrays` returns.

    Unpacks to three arrays: action names and deciding-table names
    (object; ``None`` for no table) and entry ids (int64; ``-1`` for
    none).  They are built from :attr:`verdicts`, the columnar batch,
    only when a caller reads them; the serve path reads ``verdicts``.
    """

    __slots__ = ("verdicts", "_arrays")

    def __init__(self, verdicts: VerdictBatch):
        self.verdicts = verdicts
        self._arrays: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def __len__(self) -> int:
        return 3

    def __getitem__(self, index):
        if self._arrays is None:
            v = self.verdicts
            actions = np.array(CODE_ACTIONS, dtype=object)[v.codes]
            tables = np.array(v.table_names + (None,), dtype=object)[v.table_idx]
            self._arrays = (actions, tables, v.entries)
        return self._arrays[index]


def verdicts_of(result, table_names: Sequence[str]) -> VerdictBatch:
    """The :class:`VerdictBatch` behind a ``classify_arrays`` result.

    A plain ``(action, table, entry_id)`` triple — what a stand-in
    ``classify_arrays`` (a test double, a wrapper) may return — is
    converted back to codes.
    """
    if isinstance(result, ClassifiedArrays):
        return result.verdicts
    actions, tables, entries = result
    n = len(entries)
    codes = np.zeros(n, dtype=np.uint8)
    codes[actions == "drop"] = _DROP
    codes[actions == "quarantine"] = _QUARANTINE
    table_idx = np.full(n, -1, dtype=np.int16)
    for position, name in enumerate(table_names):
        table_idx[tables == name] = position
    return VerdictBatch(
        codes, table_idx, np.asarray(entries, dtype=np.int64), table_names
    )


def batch_arrays(
    packets: Sequence[Packet], offsets: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """``(keys, sizes)`` of a batch: its ``(n, k)`` uint8 match keys at
    ``offsets`` and its ``(n,)`` int64 frame lengths.

    A :class:`~repro.net.frames.FrameRows` batch is read straight from
    its frame buffers, with no packet object built.
    """
    if isinstance(packets, FrameRows):
        return packets.keys(offsets), packets.sizes()
    sizes = np.fromiter(map(len, map(_DATA, packets)), dtype=np.int64, count=len(packets))
    return Packet.batch_keys(packets, offsets), sizes


class Register:
    """A named integer array, as in P4 ``register<bit<64>>(size)``."""

    def __init__(self, name: str, size: int):
        if size < 1:
            raise ValueError("register size must be >= 1")
        self.name = name
        self._cells = [0] * size

    def __len__(self) -> int:
        return len(self._cells)

    def read(self, index: int) -> int:
        return self._cells[index]

    def write(self, index: int, value: int) -> None:
        self._cells[index] = int(value)

    def increment(self, index: int, delta: int = 1) -> int:
        self._cells[index] += delta
        return self._cells[index]


@dataclasses.dataclass
class SwitchStats:
    """Aggregate packet statistics — where a switch's counts live.

    A plain always-on dataclass: exact, dependency-free counts for the
    differential test suite and for ``Switch.stats`` readers.  The
    registry's ``switch_*`` series are read from it at snapshot time,
    never counted a second time; see "Where counts live" in
    ``docs/OBSERVABILITY.md``.
    """

    received: int = 0
    dropped: int = 0
    allowed: int = 0
    quarantined: int = 0
    bytes_received: int = 0
    bytes_dropped: int = 0
    bytes_quarantined: int = 0

    def count_batch(self, codes: np.ndarray, sizes: np.ndarray) -> None:
        """Count one classified batch: per-row verdict codes and sizes."""
        n = len(codes)
        dropped = codes == _DROP
        quarantined = codes == _QUARANTINE
        n_drop = int(np.count_nonzero(dropped))
        n_quar = int(np.count_nonzero(quarantined))
        self.received += n
        self.dropped += n_drop
        self.quarantined += n_quar
        self.allowed += n - n_drop - n_quar
        self.bytes_received += int(sizes.sum())
        self.bytes_dropped += int(sizes[dropped].sum())
        self.bytes_quarantined += int(sizes[quarantined].sum())

    @property
    def bytes_allowed(self) -> int:
        return self.bytes_received - self.bytes_dropped - self.bytes_quarantined

    @property
    def drop_rate(self) -> float:
        return self.dropped / self.received if self.received else 0.0

    def add(self, other: "SwitchStats") -> "SwitchStats":
        """Accumulate another stats block into this one (returns self)."""
        for field in dataclasses.fields(self):
            setattr(
                self,
                field.name,
                getattr(self, field.name) + getattr(other, field.name),
            )
        return self

    @classmethod
    def aggregate(cls, stats: "Iterable[SwitchStats]") -> "SwitchStats":
        """Sum of many stats blocks — e.g. across sharded switches."""
        total = cls()
        for block in stats:
            total.add(block)
        return total


#: Each verdict's :class:`SwitchStats` packet and byte fields.
_VERDICT_FIELDS = (
    ("allow", "allowed", "bytes_allowed"),
    ("drop", "dropped", "bytes_dropped"),
    ("quarantine", "quarantined", "bytes_quarantined"),
)

#: The ``switch_*`` counters, read off each switch's :class:`SwitchStats`.
_SWITCH_SERIES = (
    obs.Series(
        "switch_packets_received_total", operator.attrgetter("received"),
        help="packets entering the pipeline",
    ),
    obs.Series(
        "switch_bytes_received_total", operator.attrgetter("bytes_received"),
        unit="bytes", help="payload bytes entering the pipeline",
    ),
    *(
        obs.Series(
            "switch_packets_total", operator.attrgetter(packets),
            {"verdict": verdict}, help="packets by final pipeline verdict",
        )
        for verdict, packets, __ in _VERDICT_FIELDS
    ),
    *(
        obs.Series(
            "switch_bytes_total", operator.attrgetter(bytes_),
            {"verdict": verdict}, unit="bytes",
            help="payload bytes by final pipeline verdict",
        )
        for verdict, __, bytes_ in _VERDICT_FIELDS
    ),
)


class _PacketStamps:
    """``stamps.take(rows)`` reads those packets' timestamps on demand.

    Decision records are kept for a few percent of a batch, so the
    batch path reads just those packets' timestamps.
    """

    __slots__ = ("_packets",)

    def __init__(self, packets: Sequence[Packet]):
        self._packets = packets

    def take(self, rows: List[int]) -> List[float]:
        if len(rows) == 1:
            return [self._packets[rows[0]].timestamp]
        return list(map(_TIMESTAMP, operator.itemgetter(*rows)(self._packets)))


class _RecordedRows:
    """The rows one batch recorded, kept as arrays until the ring is read.

    ``rows[i]`` is row ``i`` as ``(seq, timestamp, code, table_idx,
    entry_id, key values)`` of Python scalars; the first read converts
    every column at once.
    """

    __slots__ = ("_columns", "_rows")

    def __init__(self, *columns):
        self._columns = columns
        self._rows: Optional[list] = None

    def __getitem__(self, i: int) -> tuple:
        if self._rows is None:
            self._rows = list(zip(*(
                column.tolist() if isinstance(column, np.ndarray) else column
                for column in self._columns
            )))
            self._columns = None
        return self._rows[i]


class _DecisionRows:
    """Builds the :class:`DecisionRecord` of one row a batch recorded.

    A row is ``(rows, i)``: row ``i`` of a batch's :class:`_RecordedRows`;
    ``context`` is the batch's ``(shard, tenant, table names)``.
    """

    __slots__ = ("context", "table_of", "consulted", "offsets")

    def __init__(self, context: tuple, offsets: Tuple[int, ...]):
        self.context = context
        names = context[2]
        # Indexed by table_idx; index -1 (no table decided) reads the
        # last slot: no table name, the whole pipeline consulted.
        self.table_of = names + (None,)
        self.consulted = [names[: i + 1] for i in range(len(names))] + [names]
        self.offsets = offsets

    def __call__(self, row) -> DecisionRecord:
        rows, i = row
        seq, stamp, code, table, entry, values = rows[i]
        shard, tenant, __ = self.context
        return DecisionRecord(
            KIND_DECISION, seq, stamp, CODE_ACTIONS[code], shard, tenant,
            self.table_of[table], entry if entry >= 0 else None,
            self.consulted[table], self.offsets, tuple(values),
        )


class Switch:
    """A P4-style gateway switch: parser → ingress tables → verdict."""

    def __init__(self, config: SwitchConfig):
        self.config = config
        self._pipeline: List[AnyTable] = []
        self._registers: Dict[str, Register] = {}
        self.stats = SwitchStats()
        #: Optional :class:`repro.obs.FlightRecorder` capturing per-packet
        #: :class:`DecisionRecord` provenance; ``None`` keeps both data
        #: paths record-free.
        self.recorder = None
        self.recorder_shard: Optional[int] = None
        self.recorder_tenant: Optional[str] = None
        self._seq = 0
        self._names_cache: Optional[Tuple[str, ...]] = None
        self._decision_rows: Optional[_DecisionRows] = None
        #: LUT-bitmap programs of the pipeline tables (see
        #: :mod:`repro.dataplane.compiled`), rebuilt per stale table.
        self._compiled = CompiledClassifier()
        self._obs = None
        self._capture_obs()

    def _capture_obs(self) -> None:
        """(Re)resolve the active default registry and cache instruments.

        Called from ``__init__`` and again from :meth:`_sync_obs` whenever
        the registry generation moves, so a switch built before
        ``use_registry(...)`` still reports into the scoped registry.
        The registry reads :attr:`stats` from then on; a registry left
        behind keeps the counts it saw.
        """
        registry = obs.registry()
        if self._obs is not None and self._obs is not registry:
            self._obs.retire(self.stats)
        registry.track(self.stats, _SWITCH_SERIES, owner=self)
        self._obs_gen = _obs_state.generation()
        self._obs = registry
        self._obs_on = registry.enabled
        self._obs_batch_seconds = registry.histogram(
            "switch_batch_seconds", unit="s",
            help="wall-clock seconds per process_batch call",
        )

    def _sync_obs(self) -> None:
        # One int compare in the steady state; see registry._generation.
        if _obs_state._generation != self._obs_gen:
            self._capture_obs()

    def attach_recorder(
        self,
        recorder,
        *,
        shard: Optional[int] = None,
        tenant: Optional[str] = None,
    ) -> None:
        """Attach (or detach, with ``None``) a decision flight recorder."""
        self.recorder = recorder
        self.recorder_shard = shard
        self.recorder_tenant = tenant

    # -- configuration -----------------------------------------------------

    def add_table(self, table: AnyTable) -> None:
        """Append a table to the ingress pipeline."""
        if len(self._pipeline) >= self.config.pipeline_depth:
            raise RuntimeError(
                f"pipeline depth {self.config.pipeline_depth} exceeded"
            )
        if table.key_width != len(self.config.key_offsets):
            raise ValueError(
                f"table {table.name!r} key width {table.key_width} != "
                f"parser width {len(self.config.key_offsets)}"
            )
        self._pipeline.append(table)
        self._names_cache = None

    def _pipeline_names(self) -> Tuple[str, ...]:
        if self._names_cache is None:
            self._names_cache = tuple(t.name for t in self._pipeline)
        return self._names_cache

    def table(self, name: str) -> AnyTable:
        """Look up a pipeline table by name."""
        for table in self._pipeline:
            if table.name == name:
                return table
        raise KeyError(f"no table {name!r}")

    @property
    def tables(self) -> List[AnyTable]:
        return list(self._pipeline)

    def register(self, name: str, size: int = 1) -> Register:
        """Get or create a named register array."""
        if name not in self._registers:
            self._registers[name] = Register(name, size)
        return self._registers[name]

    # -- compiled classification ---------------------------------------------

    @property
    def compiled_generation(self) -> int:
        """Compiled build passes so far (0 = never compiled)."""
        return self._compiled.generation

    def compile(self) -> CompileReport:
        """Build every table's LUT program now.

        Optional: :meth:`classify_arrays` rebuilds stale tables before
        it classifies, so this only moves the build cost up front.
        """
        return self._compiled.compile(self._pipeline)

    # -- data path -----------------------------------------------------------

    def parse_key(self, packet: Packet) -> Tuple[int, ...]:
        """Extract the match key (the P4 parser's job)."""
        return packet.bytes_at(self.config.key_offsets)

    def process(self, packet: Packet, *, seq: Optional[int] = None) -> Verdict:
        """Run one packet through the pipeline and update statistics.

        Args:
            seq: sequence number stamped on the packet's
                :class:`DecisionRecord` when a recorder is attached
                (defaults to the switch's own running counter).
        """
        # _sync_obs inlined: this is a per-packet site, so skip the
        # method-call overhead and do just the generation compare.
        if _obs_state._generation != self._obs_gen:
            self._capture_obs()
        self.stats.received += 1
        self.stats.bytes_received += len(packet.data)
        key = self.parse_key(packet)
        verdict = Verdict("allow")
        decided_at = len(self._pipeline) - 1
        for position, table in enumerate(self._pipeline):
            result: MatchResult = table.lookup(key, packet_size=len(packet.data))
            action = result.action
            if action in TERMINAL_ACTIONS:
                verdict = Verdict(action, table=table.name, entry_id=result.entry_id)
                decided_at = position
                break
        if verdict.dropped:
            self.stats.dropped += 1
            self.stats.bytes_dropped += len(packet.data)
        elif verdict.action == "quarantine":
            self.stats.quarantined += 1
            self.stats.bytes_quarantined += len(packet.data)
        else:
            self.stats.allowed += 1
        if self.recorder is not None:
            if seq is None:
                seq = self._seq
                self._seq += 1
            self._record_decision(packet, key, verdict, decided_at, seq)
        return verdict

    def _record_decision(self, packet, key, verdict, decided_at, seq) -> None:
        recorder = self.recorder
        if verdict.action == "allow" and not recorder.admit_permit(seq):
            recorder.note_sampled_out()
            return
        recorder.add(
            DecisionRecord(
                kind=KIND_DECISION,
                seq=int(seq),
                timestamp=packet.timestamp,
                verdict=verdict.action,
                shard=self.recorder_shard,
                tenant=self.recorder_tenant,
                table=verdict.table,
                entry_id=verdict.entry_id,
                tables=self._pipeline_names()[: decided_at + 1],
                offsets=tuple(self.config.key_offsets),
                values=tuple(int(v) for v in key),
            )
        )

    def process_batch(
        self,
        packets: Sequence[Packet],
        *,
        seqs: Optional[Sequence[int]] = None,
    ) -> VerdictBatch:
        """Batch :meth:`process` over a whole batch of packets.

        Extracts all match keys as one ``(n, key_width)`` uint8 matrix,
        classifies each table's compiled program on the packets still
        undecided when that table is reached (first-table-wins, like
        the scalar loop), and updates statistics and table counters in
        aggregate.  Verdicts, stats, counters, and decision records are
        identical to running :meth:`process` packet by packet; the
        verdicts come back columnar, as a :class:`VerdictBatch`.

        ``packets`` may be a :class:`~repro.net.frames.FrameRows`: keys
        and sizes are then gathered straight from the frame buffers,
        and no packet object is built.

        Args:
            seqs: per-packet sequence numbers for decision records
                (defaults to the switch's running counter).
        """
        self._sync_obs()
        n = len(packets)
        if n == 0:
            return VerdictBatch.empty(self._pipeline_names())
        keys, sizes = batch_arrays(packets, self.config.key_offsets)
        timestamps = None
        if self.recorder is not None:
            timestamps = (
                packets.stamps()
                if isinstance(packets, FrameRows)
                else _PacketStamps(packets)
            )
        return verdicts_of(
            self.classify_arrays(keys, sizes, timestamps=timestamps, seqs=seqs),
            self._pipeline_names(),
        )

    def classify_arrays(
        self,
        keys: np.ndarray,
        sizes: np.ndarray,
        *,
        timestamps: Optional[Sequence[float]] = None,
        seqs: Optional[Sequence[int]] = None,
    ) -> "ClassifiedArrays":
        """Classify a pre-extracted ``(n, key_width)`` key matrix.

        The array core of :meth:`process_batch`, shared with the
        process-parallel serve backend (whose workers receive key
        matrices over shared memory, never Packet objects).  Updates
        stats, the batch-time histogram, and — when a recorder is
        attached — decision records exactly as :meth:`process_batch`
        does.  Returns ``(action, table, entry_id)`` (see
        :class:`ClassifiedArrays`); its ``verdicts`` is the columnar
        :class:`VerdictBatch` the serve path uses.

        Args:
            timestamps: per-packet stream timestamps indexed by row,
                required only when a recorder is attached (stamped on
                records; only the recorded rows are read).
            seqs: per-packet sequence numbers for decision records
                (defaults to the switch's running counter).
        """
        self._sync_obs()
        n = keys.shape[0]
        start_time = time.perf_counter() if self._obs_on else 0.0
        classifier = self._compiled
        classifier.refresh(self._pipeline)
        codes = np.zeros(n, dtype=np.uint8)
        table_idx = np.full(n, -1, dtype=np.int16)
        entries = np.full(n, -1, dtype=np.int64)
        pending = np.arange(n)
        for position, table in enumerate(self._pipeline):
            if not pending.size:
                break
            result = classifier.lookup_batch(
                table, keys[pending], packet_sizes=sizes[pending]
            )
            # Resolve codes per distinct table action, not per entry:
            # a batch hits a few actions of a possibly huge table.
            actions, inverse = np.unique(result.action_code, return_inverse=True)
            verdict_codes = np.array(
                [
                    ACTION_CODES.get(result.actions[code], _NOT_TERMINAL)
                    for code in actions.tolist()
                ],
                dtype=np.uint8,
            )[inverse]
            terminal = verdict_codes != _NOT_TERMINAL
            decided = pending[terminal]
            codes[decided] = verdict_codes[terminal]
            table_idx[decided] = position
            entries[decided] = result.entry_id[terminal]
            pending = pending[~terminal]

        self.stats.count_batch(codes, sizes)
        if self._obs_on:
            self._obs_batch_seconds.observe(time.perf_counter() - start_time)
        verdicts = VerdictBatch(codes, table_idx, entries, self._pipeline_names())
        if self.recorder is not None:
            if timestamps is None:
                raise ValueError(
                    "classify_arrays needs timestamps when a recorder is attached"
                )
            if seqs is None:
                # Numbered here: a kept row's seq is the first plus its row.
                first, self._seq = self._seq, self._seq + n
                admitted = self.recorder.admit_permit_range(first, n)
                self._record_batch(timestamps, keys, verdicts, first, admitted)
            else:
                seq_array = (
                    np.asarray(seqs, dtype=np.int64)
                    if isinstance(seqs, np.ndarray)
                    else np.fromiter(seqs, dtype=np.int64, count=len(seqs))
                )
                admitted = self.recorder.admit_permit_mask(seq_array)
                self._record_batch(timestamps, keys, verdicts, seq_array, admitted)
        return ClassifiedArrays(verdicts)

    def _record_batch(self, timestamps, keys, verdicts, seqs, admitted) -> None:
        """Batch-path decision capture, record-equal to the scalar path.

        Admission is a pure hash of ``(recorder.seed, seq)``, so the
        vectorised ``admitted`` mask selects exactly the permits the
        scalar path's :meth:`~repro.obs.FlightRecorder.admit_permit`
        would.  ``seqs`` is the batch's seq array, or the int seq of
        its first row when the switch numbered the batch itself.
        The recorder gets the kept rows as one :class:`_RecordedRows`
        block, with the batch's codes as criticality; the rows stay
        numpy arrays, and each :class:`DecisionRecord` is built only
        when the ring is read.
        """
        recorder = self.recorder
        codes = verdicts.codes
        # Every non-allow (non-zero) code is critical and always kept.
        selected = np.logical_or(codes, admitted).nonzero()[0]
        count = len(selected)
        recorder.note_sampled_out(len(codes) - count)
        if not count:
            return
        if isinstance(timestamps, _PacketStamps):
            stamps = timestamps.take(selected.tolist())
        else:
            stamps = np.asarray(timestamps, dtype=np.float64)[selected]
        codes = codes[selected]
        build = self._decision_rows
        context = (self.recorder_shard, self.recorder_tenant, self._pipeline_names())
        if build is None or build.context != context:
            build = self._decision_rows = _DecisionRows(
                context, tuple(self.config.key_offsets)
            )
        rows = _RecordedRows(
            selected + seqs if isinstance(seqs, int) else seqs[selected],
            stamps,
            codes,
            verdicts.table_idx[selected],
            verdicts.entries[selected],
            keys.take(selected, axis=0),
        )
        recorder.extend_lazy(([rows] * count, range(count)), build, critical=codes)

    def process_trace(
        self, packets: Sequence[Packet], *, batch_size: Optional[int] = None
    ) -> List[Verdict]:
        """Process a whole trace; returns per-packet verdicts in order.

        Args:
            batch_size: when set, run the trace through
                :meth:`process_batch` in chunks of this size (the fast
                path); ``None`` keeps the scalar reference path.
        """
        self._sync_obs()
        with self._obs.span("switch.process_trace"):
            if batch_size is None:
                return [self.process(packet) for packet in packets]
            if batch_size < 1:
                raise ValueError("batch_size must be >= 1")
            verdicts: List[Verdict] = []
            for start in range(0, len(packets), batch_size):
                verdicts.extend(
                    self.process_batch(packets[start : start + batch_size])
                )
            return verdicts

    def reset_stats(self) -> None:
        """Start fresh stats; the registry keeps the old block's counts."""
        # Under the process backend the parent's switches never classify,
        # so this is where they follow a registry change.
        self._sync_obs()
        self._obs.retire(self.stats)
        self.stats = SwitchStats()
        self._obs.track(self.stats, _SWITCH_SERIES, owner=self)
        self._seq = 0
