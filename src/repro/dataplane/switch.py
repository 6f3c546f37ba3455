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
"""

from __future__ import annotations

import dataclasses
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
from repro.net.packet import Packet
from repro.dataplane.compiled import CompiledClassifier, CompileReport
from repro.dataplane.tables import (
    ExactTable,
    LpmTable,
    MatchResult,
    RangeTable,
    TernaryTable,
)

__all__ = ["SwitchConfig", "Switch", "Verdict", "Register"]

AnyTable = Union[ExactTable, TernaryTable, RangeTable, LpmTable]

#: Actions with pipeline-terminating semantics.  ``quarantine`` forwards to
#: a dedicated inspection port instead of the normal egress.
TERMINAL_ACTIONS = ("drop", "allow", "quarantine")


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
    """Aggregate packet statistics — the legacy compat view.

    Kept as a plain always-on dataclass because the differential test
    suite (and downstream users of ``Switch.stats``) rely on exact,
    dependency-free counts.  The same quantities are *also* exported
    through :mod:`repro.obs` when observability is enabled
    (``switch_packets_total{verdict=...}`` etc.); new code should read
    the registry — see the migration notes in ``docs/OBSERVABILITY.md``
    and the Observability section of ``docs/ARCHITECTURE.md``.
    """

    received: int = 0
    dropped: int = 0
    allowed: int = 0
    quarantined: int = 0
    bytes_received: int = 0
    bytes_dropped: int = 0
    bytes_quarantined: int = 0

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


class _PacketStamps:
    """``stamps[row]`` reads ``packets[row].timestamp`` on demand.

    Decision records are kept for a few percent of a batch, so the
    batch path reads just those packets' timestamps.
    """

    __slots__ = ("_packets",)

    def __init__(self, packets: Sequence[Packet]):
        self._packets = packets

    def __getitem__(self, row: int) -> float:
        return self._packets[row].timestamp


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
        self._prefix_cache: Optional[Dict[Optional[str], Tuple[str, ...]]] = None
        #: LUT-bitmap programs of the pipeline tables (see
        #: :mod:`repro.dataplane.compiled`), rebuilt per stale table.
        self._compiled = CompiledClassifier()
        self._capture_obs()

    def _capture_obs(self) -> None:
        """(Re)resolve the active default registry and cache instruments.

        Called from ``__init__`` and again from :meth:`_sync_obs` whenever
        the registry generation moves, so a switch built before
        ``use_registry(...)`` still reports into the scoped registry.
        """
        registry = obs.registry()
        self._obs_gen = _obs_state.generation()
        self._obs = registry
        self._obs_on = registry.enabled
        self._obs_verdicts = {
            action: registry.counter(
                "switch_packets_total", {"verdict": action},
                help="packets by final pipeline verdict",
            )
            for action in TERMINAL_ACTIONS
        }
        self._obs_bytes = {
            action: registry.counter(
                "switch_bytes_total", {"verdict": action}, unit="bytes",
                help="payload bytes by final pipeline verdict",
            )
            for action in TERMINAL_ACTIONS
        }
        self._obs_received = registry.counter(
            "switch_packets_received_total", help="packets entering the pipeline"
        )
        self._obs_bytes_received = registry.counter(
            "switch_bytes_received_total", unit="bytes",
            help="payload bytes entering the pipeline",
        )
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
        self._prefix_cache = None

    def _pipeline_names(self) -> Tuple[str, ...]:
        if self._names_cache is None:
            self._names_cache = tuple(t.name for t in self._pipeline)
        return self._names_cache

    def _table_prefixes(self) -> Dict[Optional[str], Tuple[str, ...]]:
        """``table name -> names of tables consulted up to and including it``.

        ``None`` (no table decided the packet) maps to the full pipeline.
        """
        if self._prefix_cache is None:
            names = self._pipeline_names()
            prefixes: Dict[Optional[str], Tuple[str, ...]] = {
                name: names[: i + 1] for i, name in enumerate(names)
            }
            prefixes[None] = names
            self._prefix_cache = prefixes
        return self._prefix_cache

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
        if self._obs_on:
            size = len(packet.data)
            self._obs_received.inc()
            self._obs_bytes_received.inc(size)
            self._obs_verdicts[verdict.action].inc()
            self._obs_bytes[verdict.action].inc(size)
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
    ) -> List[Verdict]:
        """Batch :meth:`process` over a whole batch of packets.

        Extracts all match keys as one ``(n, key_width)`` uint8 matrix,
        classifies each table's compiled program on the packets still
        undecided when that table is reached (first-table-wins, like
        the scalar loop), and updates statistics and table counters in
        aggregate.  Verdicts, stats, counters, and decision records are
        identical to running :meth:`process` packet by packet.

        Args:
            seqs: per-packet sequence numbers for decision records
                (defaults to the switch's running counter).
        """
        self._sync_obs()
        n = len(packets)
        if n == 0:
            return []
        sizes = np.fromiter(
            (len(p.data) for p in packets), dtype=np.int64, count=n
        )
        keys = Packet.batch_keys(packets, self.config.key_offsets)
        timestamps = None
        if self.recorder is not None:
            timestamps = _PacketStamps(packets)
        final_action, final_table, final_entry = self.classify_arrays(
            keys, sizes, timestamps=timestamps, seqs=seqs
        )
        # A batch resolves to few distinct outcomes; share one frozen
        # Verdict per outcome instead of allocating one per packet.
        shared: Dict[tuple, Verdict] = {}
        verdicts = []
        for outcome in zip(
            final_action.tolist(), final_table.tolist(), final_entry.tolist()
        ):
            verdict = shared.get(outcome)
            if verdict is None:
                action, table, entry = outcome
                verdict = shared[outcome] = Verdict(
                    action, table=table, entry_id=entry if entry >= 0 else None
                )
            verdicts.append(verdict)
        return verdicts

    def classify_arrays(
        self,
        keys: np.ndarray,
        sizes: np.ndarray,
        *,
        timestamps: Optional[Sequence[float]] = None,
        seqs: Optional[Sequence[int]] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Classify a pre-extracted ``(n, key_width)`` key matrix.

        The array core of :meth:`process_batch`, shared with the
        process-parallel serve backend (whose workers receive key
        matrices over shared memory, never Packet objects).  Updates
        stats, observability counters, and — when a recorder is
        attached — decision records exactly as :meth:`process_batch`
        does.  Returns ``(action, table, entry_id)`` arrays (object,
        object, int64; no-table/no-entry encoded as ``None``/``-1``).

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
        self.stats.received += n
        self.stats.bytes_received += int(sizes.sum())

        classifier = self._compiled
        classifier.refresh(self._pipeline)
        final_action = np.full(n, "allow", dtype=object)
        final_table = np.full(n, None, dtype=object)
        final_entry = np.full(n, -1, dtype=np.int64)
        pending = np.arange(n)
        for table in self._pipeline:
            if not pending.size:
                break
            result = classifier.lookup_batch(
                table, keys[pending], packet_sizes=sizes[pending]
            )
            # Resolve names per distinct action code, not per entry:
            # a batch hits a few codes of a possibly huge table.
            codes, inverse = np.unique(result.action_code, return_inverse=True)
            names = np.array(
                [result.actions[code] for code in codes.tolist()], dtype=object
            )
            terminal = np.isin(names, TERMINAL_ACTIONS)[inverse]
            decided = pending[terminal]
            final_action[decided] = names[inverse[terminal]]
            final_table[decided] = table.name
            final_entry[decided] = result.entry_id[terminal]
            pending = pending[~terminal]

        dropped = final_action == "drop"
        quarantined = final_action == "quarantine"
        self.stats.dropped += int(dropped.sum())
        self.stats.quarantined += int(quarantined.sum())
        self.stats.allowed += int(n - dropped.sum() - quarantined.sum())
        self.stats.bytes_dropped += int(sizes[dropped].sum())
        self.stats.bytes_quarantined += int(sizes[quarantined].sum())
        if self._obs_on:
            n_drop = int(dropped.sum())
            n_quar = int(quarantined.sum())
            self._obs_received.inc(n)
            self._obs_bytes_received.inc(int(sizes.sum()))
            self._obs_verdicts["drop"].inc(n_drop)
            self._obs_verdicts["quarantine"].inc(n_quar)
            self._obs_verdicts["allow"].inc(n - n_drop - n_quar)
            self._obs_bytes["drop"].inc(int(sizes[dropped].sum()))
            self._obs_bytes["quarantine"].inc(int(sizes[quarantined].sum()))
            self._obs_bytes["allow"].inc(
                int(sizes.sum() - sizes[dropped].sum() - sizes[quarantined].sum())
            )
            self._obs_batch_seconds.observe(time.perf_counter() - start_time)
        if self.recorder is not None:
            if seqs is None:
                seq_array = np.arange(self._seq, self._seq + n, dtype=np.int64)
                self._seq += n
            else:
                seq_array = np.asarray(seqs, dtype=np.int64)
            if timestamps is None:
                raise ValueError(
                    "classify_arrays needs timestamps when a recorder is attached"
                )
            self._record_batch(
                timestamps, keys, final_action, final_table, final_entry,
                dropped | quarantined, seq_array,
            )
        return final_action, final_table, final_entry

    def _record_batch(
        self, timestamps, keys, final_action, final_table, final_entry,
        critical, seq_array,
    ) -> None:
        """Batch-path decision capture, record-equal to the scalar path.

        Admission is a pure hash of ``(recorder.seed, seq)``, so the
        vectorised mask here selects exactly the permits the scalar
        path's :meth:`~repro.obs.FlightRecorder.admit_permit` would.
        """
        recorder = self.recorder
        selected = np.flatnonzero(critical | recorder.admit_permit_mask(seq_array))
        recorder.note_sampled_out(len(seq_array) - len(selected))
        if not selected.size:
            return
        prefixes = self._table_prefixes()
        offsets = tuple(self.config.key_offsets)
        shard, tenant, add = self.recorder_shard, self.recorder_tenant, recorder.add
        # Python scalars for the selected rows only, in one pass each.
        for seq, timestamp, action, table, entry, values in zip(
            seq_array[selected].tolist(),
            [float(timestamps[i]) for i in selected.tolist()],
            final_action[selected].tolist(),
            final_table[selected].tolist(),
            final_entry[selected].tolist(),
            keys[selected].tolist(),
        ):
            # Positional in field order (kind, seq, timestamp, verdict,
            # shard, tenant, table, entry_id, tables, offsets, values):
            # keyword construction costs twice as much per record.
            add(DecisionRecord(
                KIND_DECISION, seq, timestamp, action, shard, tenant, table,
                entry if entry >= 0 else None, prefixes[table], offsets,
                tuple(values),
            ))

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
        self.stats = SwitchStats()
        self._seq = 0
