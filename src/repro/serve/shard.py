"""Sharded switch workers behind a consistent flow hash.

One software switch is one Python/numpy execution stream; serving more
load means more switch instances.  Correctness constraint: stateful
tables (per-flow registers, rate-limit stages) only stay correct if
*every packet of a flow lands on the same shard*.  The
:func:`flow_shard` hash guarantees that:

* ``mode="bytes"`` (default) — CRC-32 over the flow-identifying byte
  region of the frame (IPv4 src/dst + L4 ports for Ethernet frames,
  the whole frame when shorter).  Cheap enough for the per-packet hot
  path; direction-*sensitive* (each direction of a conversation is its
  own flow, as in RSS).
* ``mode="flow"`` — full direction-normalised 5-tuple via
  :func:`repro.net.flow.key_for_packet`; both directions of a
  conversation share a shard, at the cost of a header parse per packet.

Both are stable across processes and runs (no Python hash
randomisation), so a sharded deployment can be reasoned about offline.
:func:`flow_shards` assigns a whole frame block at once, equal to
:func:`flow_shard` row by row (``"bytes"`` mode is one vectorised
CRC-32 per block).

Each :class:`Shard` owns a deployed
:class:`~repro.dataplane.controller.GatewayController`, an
:class:`~repro.serve.batcher.AdaptiveBatcher`, and a
:class:`BoundedQueue` of flushed batches awaiting service.  The
:class:`ShardSet` builds N of them from one rule set and installs rule
updates atomically across the set (between batches — no packet is ever
matched against a half-installed table).
"""

from __future__ import annotations

import time
import zlib
from typing import Deque, Dict, List, Optional, Tuple

import collections

import numpy as np

from repro.core.rules import RuleSet
from repro.dataplane.controller import Expansion, GatewayController
from repro.dataplane.switch import CODE_ACTIONS, SwitchStats, VerdictBatch
from repro.net.frames import FrameBlock
from repro.net.packet import Packet
from repro.serve.batcher import AdaptiveBatcher, Batch

__all__ = [
    "BoundedQueue", "Shard", "ShardSet", "flow_shard", "flow_shards", "swap_controller",
]

#: Ethernet + IPv4 flow-identifying byte region: IP src/dst (26..34) and
#: L4 ports (34..38).  Frames shorter than this hash in full.
_FLOW_BYTES = slice(26, 38)


def flow_shard(packet: Packet, n_shards: int, *, mode: str = "bytes") -> int:
    """Deterministic shard index for a packet's flow.

    Args:
        n_shards: shard count (result is in ``range(n_shards)``).
        mode: ``"bytes"`` (fast, direction-sensitive) or ``"flow"``
            (direction-normalised 5-tuple, parses headers).
    """
    if n_shards == 1:
        return 0
    if mode == "bytes":
        data = packet.data
        segment = data[_FLOW_BYTES] if len(data) >= _FLOW_BYTES.stop else data
        return zlib.crc32(segment) % n_shards
    if mode == "flow":
        from repro.net.flow import key_for_packet

        key = key_for_packet(packet)
        if key is None:
            return zlib.crc32(packet.data) % n_shards
        blob = (
            f"{key.protocol}|{key.src}|{key.dst}|{key.src_port}|{key.dst_port}"
        )
        return zlib.crc32(blob.encode()) % n_shards
    raise ValueError(f"unknown flow hash mode {mode!r}")


def flow_shards(block: FrameBlock, n_shards: int, *, mode: str = "bytes") -> np.ndarray:
    """:func:`flow_shard` of every row of a frame block, as int64."""
    n = len(block)
    if n_shards == 1:
        return np.zeros(n, dtype=np.int64)
    if mode == "bytes":
        return block.crc32(np.arange(n), _FLOW_BYTES.start, _FLOW_BYTES.stop) % n_shards
    return np.fromiter(
        (flow_shard(packet, n_shards, mode=mode) for packet in block.packets()),
        dtype=np.int64,
        count=n,
    )


class BoundedQueue:
    """A bounded FIFO of batches with packet-granular drop accounting.

    Capacity is counted in *packets*, not batches, because that is the
    unit of memory and of loss.  ``offer`` admits as many packets of a
    batch as fit (head of the batch first — tail-drop) and reports how
    many were refused; the caller turns refusals into explicit shed
    verdicts.  Nothing is ever silently discarded.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.depth = 0
        self.high_watermark = 0
        self._batches: Deque[Batch] = collections.deque()

    def __len__(self) -> int:
        return len(self._batches)

    def offer(self, batch: Batch) -> Tuple[Optional[Batch], int]:
        """Admit what fits; returns (admitted batch or None, shed count)."""
        space = self.capacity - self.depth
        if space <= 0:
            return None, len(batch)
        if len(batch) <= space:
            admitted, shed = batch, 0
        else:
            admitted, shed = batch[:space], len(batch) - space
        self._batches.append(admitted)
        self.depth += len(admitted)
        if self.depth > self.high_watermark:
            self.high_watermark = self.depth
        return admitted, shed

    def shed_tail(self, batch: Batch, shed: int) -> Batch:
        """The last ``shed`` rows of ``batch``, which ``offer`` refused."""
        return batch[len(batch) - shed :]

    def pop(self) -> Batch:
        batch = self._batches.popleft()
        self.depth -= len(batch)
        return batch


def swap_controller(
    controller: Optional[GatewayController],
    rules: RuleSet,
    table_capacity: int,
    expansion: Optional[Expansion] = None,
) -> GatewayController:
    """The controller that serves ``rules`` after a swap from ``controller``.

    Same parser offsets → ``controller`` itself, updated in place by the
    incremental :meth:`GatewayController.update` (minimal entry churn);
    changed offsets, or no controller yet → a freshly deployed one (a
    new parser, as on hardware).  Both executors swap by this rule, so
    entry ids stay equal across them.  ``expansion`` is ``rules``'
    :class:`~repro.dataplane.controller.Expansion` when one is shared
    across shards.
    """
    if controller is not None and controller.switch.config.key_offsets == rules.offsets:
        controller.update(rules, expansion=expansion)
        return controller
    fresh = GatewayController.for_ruleset(rules, table_capacity=table_capacity)
    fresh.deploy(rules, expansion=expansion)
    return fresh


class Shard:
    """One worker: a deployed switch plus its batcher and queue.

    Attributes:
        index: shard number (stable label for metrics).
        controller: the deployed gateway controller.
        batcher: per-shard adaptive batcher.
        queue: bounded batch queue awaiting service.
        busy_until: stream time at which the worker frees up (the
            single-server queueing clock).
    """

    def __init__(
        self,
        index: int,
        controller: GatewayController,
        *,
        max_batch: int,
        max_latency: float,
        queue_capacity: int,
    ):
        self.index = index
        self.controller = controller
        self.batcher = AdaptiveBatcher(max_batch, max_latency)
        self.queue = BoundedQueue(queue_capacity)
        self.busy_until = 0.0
        self.processed = 0
        self.shed = 0
        self.verdict_counts: Dict[str, int] = {}

    @property
    def switch(self):
        return self.controller.switch

    def count_verdicts(self, verdicts: VerdictBatch) -> None:
        """Add one batch's per-action packet counts."""
        counts = self.verdict_counts
        for action, count in zip(CODE_ACTIONS, verdicts.counts().tolist()):
            if count:
                counts[action] = counts.get(action, 0) + count


class ShardSet:
    """N shards built from one rule set, with atomic rule installs.

    Args:
        rules: the rule set every shard starts with.
        n_shards: worker count.
        table_capacity: per-shard firewall table capacity.
        max_batch / max_latency / queue_capacity: per-shard policy
            (queue capacity is per shard, so total buffering scales
            with the shard count, as it would across real workers).
    """

    def __init__(
        self,
        rules: RuleSet,
        *,
        n_shards: int = 1,
        table_capacity: int = 4096,
        max_batch: int = 1024,
        max_latency: float = 0.005,
        queue_capacity: int = 8192,
    ):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.table_capacity = table_capacity
        self._build_args = dict(
            max_batch=max_batch,
            max_latency=max_latency,
            queue_capacity=queue_capacity,
        )
        self.rules = rules
        self._retired: List[SwitchStats] = []
        expansion = Expansion(rules)
        self.shards: List[Shard] = [
            Shard(
                i,
                swap_controller(None, rules, table_capacity, expansion),
                **self._build_args,
            )
            for i in range(n_shards)
        ]
        #: Wall-clock seconds of each :meth:`install` this run — the
        #: "swap" leg of the drift→retrain→swap latency the endurance
        #: harness reports (the retrain leg is timed by the hook).
        self.swap_seconds: List[float] = []

    def __len__(self) -> int:
        return len(self.shards)

    @property
    def rule_swaps(self) -> int:
        """Atomic installs this run."""
        return len(self.swap_seconds)

    def __iter__(self):
        return iter(self.shards)

    def __getitem__(self, index: int) -> Shard:
        return self.shards[index]

    def install(self, rules: RuleSet) -> None:
        """Atomically swap every shard to ``rules``.

        Called only between batches by the gateway loop, so no packet
        is ever matched against a half-installed rule set.  Each shard
        swaps by :func:`swap_controller`, all from one expansion of
        ``rules`` and, while the shards hold the same entries, one diff;
        a changed-offsets swap keeps batcher/queue contents untouched
        (they hold raw packets, not parsed keys).  Each changed table's
        LUT program is rebuilt by the next batch that shard classifies.
        """
        swap_start = time.perf_counter()
        expansion = Expansion(rules)
        for shard in self.shards:
            controller = swap_controller(
                shard.controller, rules, self.table_capacity, expansion
            )
            if controller is not shard.controller:
                # A parser change retires the old switch; keep its
                # counts so aggregate stats survive the swap.
                self._retired.append(shard.switch.stats)
                shard.controller = controller
        self.rules = rules
        self.swap_seconds.append(time.perf_counter() - swap_start)

    def stats(self) -> SwitchStats:
        """Aggregate switch statistics across all shards (swaps included)."""
        return SwitchStats.aggregate(
            self._retired + [s.switch.stats for s in self.shards]
        )

    def reset(self) -> None:
        """Zero every per-run counter and the queueing clock."""
        self._retired.clear()
        self.swap_seconds.clear()
        for shard in self.shards:
            shard.processed = 0
            shard.shed = 0
            shard.verdict_counts = {}
            shard.busy_until = 0.0
            shard.queue.high_watermark = 0
            shard.switch.reset_stats()
