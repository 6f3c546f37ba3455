"""The streaming gateway event loop: sources → batcher → shards → verdicts.

:class:`StreamingGateway` turns the offline pipeline into a long-lived,
load-tolerant server.  The loop is a discrete-event simulation in
*stream time* (packet timestamps are the arrival clock) wrapped around
*real* classification work: every serviced batch goes through the same
vectorised :meth:`~repro.dataplane.switch.Switch.process_batch` path
the offline harness uses, so soak throughput is a wall-clock number
directly comparable to ``replay_gateway`` — while queueing, deadlines,
backpressure and shedding are exact, deterministic functions of the
offered arrival process (no sleeping, no flaky timers).

The loop serves frame blocks.  Every source class offers them
(``source.frame_blocks()``: a pcap or corpus hands over the blocks it
read, or re-timed, large blocks of its re-timed packets, as does a
:class:`~repro.serve.sources.SyntheticSource`), and a materialised
packet ``Sequence`` (a list or tuple) is cut into large blocks of the
packets themselves (:func:`~repro.net.frames.pack_blocks`).  Only a
live packet iterator (a wall-clock-paced source, a generator) is
packed as it is read, each block ending at the first packet that could
trigger work, so a live source is never read ahead.  Each
block gets one vectorised flow hash (consistent flow hash — stateful
tables stay per-flow correct), and its rows go to their shards'
adaptive batchers in runs cut where the deadline, alert and size
triggers fall, found by array search over the block's stamps.  Where a
block ends never changes the result.  Everything else happens once per
batch, on arrays: on a size or deadline trigger the batch moves to the
shard's bounded queue, and the shard worker services
queued batches at its configured ``service_rate`` (``None`` =
unconstrained, the pure-throughput soak mode) by submitting them to an
executor — inline or process-parallel, one interface
(:mod:`repro.serve.workers`) — whose results one completion routine
applies: latencies, verdict counts, recording, the retrain hook, and
observability.  When a
queue is full the overflow is *shed* with explicit accounting — counted,
given a policy verdict (``fail-open`` ⇒ allowed uninspected,
``fail-closed`` ⇒ dropped), never silently lost.  A retrain hook runs
between batches and may atomically swap the rule set on every shard.

See docs/ARCHITECTURE.md (Serving) for the design discussion and
docs/OBSERVABILITY.md for the instrument catalogue.
"""

from __future__ import annotations

import collections
import collections.abc
import dataclasses
import math
import operator
import time
from itertools import chain
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro import obs
import repro.obs.registry  # noqa: F401  (module handle resolved below)
import sys

# See dataplane/switch.py: the obs package rebinds `registry` to a function.
_obs_state = sys.modules["repro.obs.registry"]
from repro.core.rules import RuleSet
from repro.dataplane.switch import SwitchStats, Verdict, VerdictBatch
from repro.net.frames import FrameBlock, pack_blocks
from repro.net.packet import Packet
from repro.serve.batcher import Batch
from repro.serve.shard import Shard, ShardSet, flow_shard, flow_shards
from repro.serve.workers import (
    BatchResult,
    InlineExecutor,
    ProcessExecutor,
    WorkerDiedError,
)

__all__ = [
    "FAIL_CLOSED",
    "FAIL_OPEN",
    "SHED_ACTIONS",
    "ServeConfig",
    "SoakResult",
    "StreamingGateway",
    "arrival_order",
]

#: Load-shedding policies: what happens to packets the queues cannot hold.
FAIL_OPEN = "fail-open"      # shed traffic passes uninspected (availability)
FAIL_CLOSED = "fail-closed"  # shed traffic is dropped (security)

#: The verdict action each policy gives the packets it sheds.
SHED_ACTIONS = {FAIL_OPEN: "allow", FAIL_CLOSED: "drop"}

#: Retrain hook signature: (batch packets, their verdicts) → optional new
#: rule set to install atomically across all shards.  The verdicts are a
#: :class:`~repro.dataplane.switch.VerdictBatch` (a ``Sequence[Verdict]``).
RetrainHook = Callable[[List[Packet], VerdictBatch], Optional[RuleSet]]

#: A frame block and the shard of each of its rows (``None``: not hashed yet).
Routed = Tuple[FrameBlock, Optional[np.ndarray]]

#: Arrival indices and their verdicts: a batch's, one per index, or one
#: verdict for every listed index (see :func:`arrival_order`).
VerdictPart = Tuple[Sequence[int], Union[VerdictBatch, Sequence[Verdict], Verdict]]


@dataclasses.dataclass
class ServeConfig:
    """Static serving policy.

    Attributes:
        n_shards: switch workers behind the flow hash.
        max_batch: adaptive batcher size trigger (also the largest
            batch handed to ``process_batch``).
        max_latency: batcher deadline trigger, seconds of stream time —
            the bound the p99 batcher-wait assertion holds against.
        queue_capacity: per-shard bounded queue capacity in packets;
            must be at least ``max_batch`` so a full batch can ever be
            admitted.
        policy: :data:`FAIL_OPEN` or :data:`FAIL_CLOSED`.
        service_rate: per-shard service capacity in pkts/s of stream
            time; ``None`` models an unconstrained worker (queues never
            build, nothing sheds — the pure-throughput soak mode).
        table_capacity: per-shard firewall table capacity.
        hash_mode: ``"bytes"`` or ``"flow"`` (see
            :func:`repro.serve.shard.flow_shard`).
        record_verdicts: keep the per-packet verdict list in arrival
            order (tests / differential comparison); turn off for long
            soaks to bound memory.
        executor: ``"inline"`` (classify in the event-loop process, the
            historical behaviour) or ``"process"`` (one worker process
            per shard fed over shared-memory frame rings — see
            :mod:`repro.serve.workers`).  Verdicts, shed accounting and
            aggregated stats are backend-identical.
        ring_slots: frame/result ring depth per worker (process
            backend), at least 2.  A full frame ring blocks the
            submitter in wall clock (accounted, never shed) —
            stream-time shedding stays with the bounded queues,
            identical to inline.

    Multi-tenant serving takes its tenants and table budget as
    :class:`repro.fleet.FleetGateway` arguments and gives every tenant
    gateway a copy of this config.
    """

    n_shards: int = 1
    max_batch: int = 1024
    max_latency: float = 0.005
    queue_capacity: int = 8192
    policy: str = FAIL_CLOSED
    service_rate: Optional[float] = None
    table_capacity: int = 4096
    hash_mode: str = "bytes"
    record_verdicts: bool = True
    executor: str = "inline"
    ring_slots: int = 8

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_latency <= 0:
            raise ValueError("max_latency must be positive")
        if self.table_capacity < 1:
            raise ValueError("table_capacity must be >= 1")
        if self.policy not in SHED_ACTIONS:
            raise ValueError(f"unknown shed policy {self.policy!r}")
        if self.queue_capacity < self.max_batch:
            raise ValueError(
                "queue_capacity must be >= max_batch "
                f"({self.queue_capacity} < {self.max_batch})"
            )
        if self.service_rate is not None and self.service_rate <= 0:
            raise ValueError("service_rate must be positive (or None)")
        if self.executor not in ("inline", "process"):
            raise ValueError(f"unknown executor {self.executor!r}")
        if self.ring_slots < 2:
            raise ValueError("ring_slots must be >= 2")


@dataclasses.dataclass
class SoakResult:
    """Outcome of one streaming run.

    Throughput numbers are wall-clock (real work); latency numbers are
    stream time (deterministic functions of the arrival process).
    """

    offered: int
    processed: int
    shed: int
    wall_seconds: float
    process_seconds: float
    duration: float                      # stream-time span of the run
    batches: int
    flush_reasons: Dict[str, int]
    latency_p50: float
    latency_p99: float
    latency_mean: float
    batcher_wait_p99: float
    rule_swaps: int
    stats: SwitchStats                   # aggregated across shards
    per_shard: List[Dict[str, object]]
    verdicts: Optional[List[Verdict]] = None
    #: SLO alert events fired during the run (empty without an engine).
    alerts: List[object] = dataclasses.field(default_factory=list)
    #: p99 wall-clock seconds per serviced batch (classification only).
    batch_seconds_p99: float = 0.0
    #: shard workers that died mid-run (process backend; their traffic
    #: failed closed).
    worker_failures: int = 0

    @property
    def pkts_per_sec(self) -> float:
        """End-to-end soak throughput (whole run wall-clock)."""
        return self.processed / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def service_pkts_per_sec(self) -> float:
        """Throughput of the classification work alone."""
        return (
            self.processed / self.process_seconds if self.process_seconds else 0.0
        )

    @property
    def shed_fraction(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    @property
    def offered_rate(self) -> float:
        """Offered load in pkts/s of stream time."""
        return self.offered / self.duration if self.duration else 0.0

    def summary(self) -> str:
        lines = [
            f"offered   {self.offered} pkts "
            f"({self.offered_rate:,.0f} pkts/s stream time, "
            f"{self.duration:.2f}s)",
            f"processed {self.processed} pkts in {self.wall_seconds:.3f}s wall "
            f"({self.pkts_per_sec:,.0f} pkts/s; classification only "
            f"{self.service_pkts_per_sec:,.0f} pkts/s)",
            f"shed      {self.shed} pkts ({100 * self.shed_fraction:.2f}%)",
            f"verdicts  {self.stats.allowed} allowed / {self.stats.dropped} "
            f"dropped / {self.stats.quarantined} quarantined",
            f"batches   {self.batches} "
            f"(triggers: {dict(sorted(self.flush_reasons.items()))})",
            f"latency   p50 {1e3 * self.latency_p50:.3f}ms  "
            f"p99 {1e3 * self.latency_p99:.3f}ms  "
            f"batcher-wait p99 {1e3 * self.batcher_wait_p99:.3f}ms",
        ]
        if self.rule_swaps:
            lines.append(f"swaps     {self.rule_swaps} atomic rule swaps")
        if self.worker_failures:
            lines.append(
                f"workers   {self.worker_failures} died "
                "(their traffic failed closed)"
            )
        if self.alerts:
            lines.append(
                f"alerts    {len(self.alerts)} fired: "
                + ", ".join(sorted({a.name for a in self.alerts}))
            )
        return "\n".join(lines)


class StreamingGateway:
    """Long-lived serving loop over sharded gateway switches.

    Example::

        gateway = StreamingGateway(rules, ServeConfig(n_shards=4))
        result = gateway.run(SyntheticSource(rate=50_000))
        print(result.summary())

    Args:
        rules: the rule set deployed on every shard.
        config: serving policy (defaults are the soak defaults).
        retrain_hook: optional ``(packets, verdicts) -> RuleSet | None``
            called after every serviced batch; a returned rule set is
            installed atomically on all shards before any further batch
            is processed (see :class:`repro.serve.hooks.DriftRetrainHook`).
        recorder: optional :class:`repro.obs.FlightRecorder` attached to
            every shard switch; captures per-packet decision records
            (seq = arrival index) and a shed record for every packet the
            backpressure policy refuses.
        alert_engine: optional :class:`repro.obs.AlertEngine` evaluated
            every ``alert_interval`` seconds of stream time during the
            run (and once at the end); fired events land in
            :attr:`SoakResult.alerts` and, via the engine, in the flight
            recorder and its auto-dump.
        alert_interval: stream-time seconds between alert evaluations.
    """

    def __init__(
        self,
        rules: RuleSet,
        config: Optional[ServeConfig] = None,
        *,
        retrain_hook: Optional[RetrainHook] = None,
        recorder=None,
        alert_engine=None,
        alert_interval: float = 0.5,
        tenant: Optional[str] = None,
    ):
        if alert_interval <= 0:
            raise ValueError("alert_interval must be positive")
        self.config = config or ServeConfig()
        #: Tenant this gateway serves under a fleet deployment; stamps
        #: verdicts and decision records.  ``None`` (single-tenant)
        #: leaves every record untagged, byte-identical to pre-fleet runs.
        self.tenant = tenant
        # Under the process backend the parent's shard switches never
        # classify (workers do), so their LUT programs are never built.
        self.shards = ShardSet(
            rules,
            n_shards=self.config.n_shards,
            table_capacity=self.config.table_capacity,
            max_batch=self.config.max_batch,
            max_latency=self.config.max_latency,
            queue_capacity=self.config.queue_capacity,
        )
        self._executor = None     # the run's Inline/ProcessExecutor
        self._remote = False
        self.retrain_hook = retrain_hook
        self.recorder = recorder
        self.alert_engine = alert_engine
        self.alert_interval = alert_interval
        self._attach_recorder()
        self._run_series = self._series()
        self._capture_obs()
        self._reset_run_state()

    def _attach_recorder(self) -> None:
        """(Re)attach the flight recorder on every shard switch.

        Called at construction and after every atomic rule install —
        a changed-offsets install rebuilds shard controllers, which
        discards the previous switches (and their recorder hookup).
        """
        if self.recorder is None:
            return
        for shard in self.shards:
            shard.switch.attach_recorder(
                self.recorder, shard=shard.index, tenant=self.tenant
            )

    def _capture_obs(self) -> None:
        """(Re)resolve the active default registry and cache instruments."""
        registry = self._registry = obs.registry()
        self._obs_gen = _obs_state.generation()
        self._obs_on = registry.enabled
        self._obs_batch_size = registry.histogram(
            "serve_batch_size",
            buckets=[float(2 ** i) for i in range(13)],
            help="packets per flushed batch",
        )
        self._obs_wait = registry.histogram(
            "serve_batcher_wait_seconds", unit="s",
            help="stream-time wait from packet arrival to batch flush",
        )
        self._obs_latency = registry.histogram(
            "serve_e2e_latency_seconds", unit="s",
            help="stream-time latency from arrival to verdict",
        )
        self._obs_depth = {
            shard.index: registry.gauge(
                "serve_queue_depth", {"shard": str(shard.index)},
                help="packets queued per shard awaiting service",
            )
            for shard in self.shards
        }
        if self.config.executor != "process":
            return
        # Process backend: the parent records what its workers measured.
        self._obs_parallel_workers = registry.gauge(
            "parallel_workers",
            help="live shard worker processes (process backend)",
        )
        self._obs_worker_batches = {
            shard.index: registry.counter(
                "worker_batches_total", {"shard": str(shard.index)},
                help="batches classified per worker process",
            )
            for shard in self.shards
        }
        self._obs_worker_batch_seconds = registry.histogram(
            "worker_batch_seconds", unit="s",
            help="wall-clock seconds per worker-classified batch",
        )
        self._obs_swap_barrier = registry.histogram(
            "parallel_swap_barrier_seconds", unit="s",
            help="wall-clock seconds per cross-worker rule-swap barrier",
        )

    def _series(self) -> List[obs.Series]:
        """The run's counters, read off the gateway while :meth:`run` lasts."""
        Series, field = obs.Series, operator.attrgetter
        series = [
            Series(
                "serve_offered_packets_total", field("_offered"),
                help="packets offered to the gateway by the source",
            ),
            Series(
                "serve_rule_swaps_total", field("shards.rule_swaps"),
                help="atomic rule-set swaps installed across all shards",
            ),
        ]
        series += [
            Series(
                "serve_batches_total", lambda g, r=reason: g._flush_reasons.get(r, 0),
                {"reason": reason}, help="flushed batches by trigger",
            )
            for reason in ("full", "deadline", "drain")
        ]
        for i in range(len(self.shards)):
            series += [
                Series(
                    "serve_shed_packets_total", lambda g, i=i: g.shards[i].shed,
                    {"shard": str(i), "policy": self.config.policy},
                    help="packets shed by the backpressure policy",
                ),
                Series(
                    "serve_shard_packets_total", lambda g, i=i: g.shards[i].processed,
                    {"shard": str(i)}, help="packets classified per shard",
                ),
            ]
        if self.config.executor == "process":
            series += [
                Series(
                    "worker_failures_total", lambda g: len(g._dead),
                    help="shard workers that died mid-run (traffic failed closed)",
                ),
                Series(
                    "parallel_ring_full_waits_total", field("_executor.ring_full_waits"),
                    help="submits that blocked on a full frame ring",
                ),
                Series(
                    "parallel_ring_full_wait_seconds",
                    field("_executor.ring_full_wait_seconds"), unit="s",
                    help="wall-clock seconds spent blocked on full frame rings",
                ),
            ]
        return series

    def _reset_run_state(self) -> None:
        # A SoakResult describes exactly one run: shard counters, switch
        # stats and the queueing clock all start fresh so the accounting
        # invariant (offered == processed + shed == stats.received + shed)
        # holds per run.
        self.shards.reset()
        # Verdict parts, merged into arrival order at the end of the run:
        # (indices, classified batch) and (indices, shed verdict).
        self._verdicts: List[VerdictPart] = []
        self._latencies: List[np.ndarray] = []
        self._waits: List[np.ndarray] = []
        self._offered = 0
        self._flush_reasons: Dict[str, int] = {}
        self._next_deadline = math.inf
        self._next_alert_t = math.inf
        self._alerts: List[object] = []
        self._first_t: Optional[float] = None
        self._last_t = 0.0
        self._batch_seconds: List[float] = []
        # Submitted-but-uncompleted batches, in submit order across all
        # shards: completions apply in this order on both executors, so
        # histogram sums and recorder order do not depend on which
        # worker answered first.
        self._pending: collections.deque = collections.deque()
        self._dead: set = set()  # shards whose worker died
        self._lockstep = self.retrain_hook is not None

    # -- the event loop ------------------------------------------------------

    def run(self, source: Iterable[Packet]) -> SoakResult:
        """Consume a source to exhaustion, then drain; returns the result.

        A source that offers ``frame_blocks()`` is served as those
        blocks, a packet ``Sequence`` as :func:`pack_blocks` blocks, and
        any other iterable, which is live, through :meth:`_pack`.
        """
        if _obs_state._generation != self._obs_gen:  # see registry._generation
            self._capture_obs()
        self._reset_run_state()
        config = self.config
        self._remote = config.executor == "process"
        if self._remote:
            self._executor = ProcessExecutor(
                self.shards.rules,
                n_shards=config.n_shards,
                table_capacity=config.table_capacity,
                max_batch=config.max_batch,
                ring_slots=config.ring_slots,
            )
            self._obs_parallel_workers.set(config.n_shards)
        else:
            self._executor = InlineExecutor(self.shards)
        self._registry.track(self, self._run_series)  # until run() ends
        wall_start = time.perf_counter()
        try:
            if hasattr(source, "frame_blocks"):
                routed = ((block, None) for block in source.frame_blocks())
            elif isinstance(source, collections.abc.Sequence):
                routed = ((block, None) for block in pack_blocks(source))
            else:
                routed = self._pack(source)
            return self._run_blocks(routed, wall_start)
        finally:
            self._registry.retire(self)
            if self._remote:
                self._obs_parallel_workers.set(0)
            self._executor.close()
            self._executor = None

    def _pack(self, packets: Iterable[Packet]) -> Iterator[Routed]:
        """Pack a live packet stream into routed frame blocks, reading nothing ahead.

        A block ends at the first packet that may trigger work: one
        whose stamp reaches the next batcher deadline, the next alert
        time, or the deadline of a batch the block itself opens (no
        earlier than its first stamp + ``max_latency``); or the packet
        that fills a batcher, which is why each packet is routed here
        when there are several shards.  Each block comes with the shard
        of every row (``None`` on one shard), so a packet is hashed
        once.  The gateway serves each block before this reads on, so
        the source is pulled no further than a packet-at-a-time loop
        would pull it.
        """
        batchers = [shard.batcher for shard in self.shards]
        n_shards = len(batchers)
        hash_mode = self.config.hash_mode
        max_batch, max_latency = batchers[0].max_batch, batchers[0].max_latency
        block: List[Packet] = []
        stamps: List[float] = []
        owners: List[int] = []
        for packet in packets:
            t = packet.timestamp
            if not block:
                alert = self._next_alert_t
                if self._first_t is None:  # the alert clock starts here
                    alert = t + self.alert_interval
                limit = min(self._next_deadline, alert, t + max_latency)
                pending = [len(batcher) for batcher in batchers]
            block.append(packet)
            stamps.append(t)
            if n_shards > 1:
                i = flow_shard(packet, n_shards, mode=hash_mode)
                owners.append(i)
            else:
                i = 0
            pending[i] += 1
            if t >= limit or pending[i] >= max_batch:
                yield self._routed(block, stamps, owners)
                block, stamps, owners = [], [], []
        if block:
            yield self._routed(block, stamps, owners)

    @staticmethod
    def _routed(block: List[Packet], stamps: List[float], owners: List[int]) -> Routed:
        return (
            FrameBlock.of(block, np.array(stamps, dtype=np.float64)),
            np.array(owners, dtype=np.int64) if owners else None,
        )

    def _run_blocks(self, routed: Iterable[Routed], wall_start: float) -> SoakResult:
        """Serve frame blocks: the event loop.

        ``routed`` yields each block with its rows' shards, or ``None``
        where they are not known yet (see :data:`Routed`).  Within a
        block, rows are appended to their shards' batchers in runs, cut
        at the next row that does something else: a deadline
        or alert clock firing before the row is appended, or the row
        filling a batch (size trigger) or opening one (a new, possibly
        earlier, deadline).  A clock fires at the first row whose stamp
        reaches it, which is the first row where the running maximum of
        the stamps reaches it — so a search over that running maximum
        finds it on any stamp order.
        """
        hash_mode = self.config.hash_mode
        shards = self.shards.shards
        n_shards = len(shards)
        batchers = [shard.batcher for shard in shards]
        max_batch, max_latency = batchers[0].max_batch, batchers[0].max_latency
        engine = self.alert_engine
        offered = self._offered
        t = self._last_t
        with self._registry.span("serve.soak"):
            for block, owner in routed:
                m = len(block)
                if not m:
                    continue
                stamps = block.stamps
                if self._first_t is None:
                    self._first_t = float(stamps[0])
                    if engine is not None:
                        self._next_alert_t = self._first_t + self.alert_interval
                if n_shards > 1:
                    if owner is None:
                        owner = flow_shards(block, n_shards, mode=hash_mode)
                    rows = [np.flatnonzero(owner == i) for i in range(n_shards)]
                else:
                    rows = [np.arange(m)]
                cursor = [0] * n_shards   # next row of rows[i] to append
                peak = np.maximum.accumulate(stamps)
                p = 0
                while p < m:
                    clock = min(self._next_deadline, self._next_alert_t)
                    j = _first_reaching(stamps, peak, p, clock)
                    # First row whose append fills or opens a batch.
                    k = m
                    for i in range(n_shards):
                        pending = len(batchers[i])
                        at = cursor[i] + (max_batch - pending if pending else 1) - 1
                        if at < len(rows[i]) and rows[i][at] < k:
                            k, k_shard = int(rows[i][at]), i
                    end = j if j <= k else k + 1
                    for i in range(n_shards):
                        new = int(rows[i].searchsorted(end))
                        if new > cursor[i]:
                            batchers[i].add_rows(block, rows[i], cursor[i], new, offered)
                            cursor[i] = new
                    if j <= k:
                        if j == m:
                            break
                        t = float(stamps[j])
                        if t >= self._next_deadline:
                            self._flush_due(t)
                        if t >= self._next_alert_t:
                            self._offered = offered + j  # the shed-rate denominator
                            self._alerts.extend(engine.evaluate(t))
                            self._next_alert_t = t + self.alert_interval
                        p = j
                        continue
                    t = float(stamps[k])
                    batcher = batchers[k_shard]
                    if len(batcher) >= max_batch:
                        self._dispatch(shards[k_shard], batcher.flush_full(), t)
                        self._recompute_deadline()
                    elif t + max_latency < self._next_deadline:
                        self._next_deadline = t + max_latency
                    p = k + 1
                offered += m
                t = float(stamps[-1])
            self._offered = offered
            self._finish(t)
        wall = time.perf_counter() - wall_start
        return self._result(wall)

    def _finish(self, t: float) -> None:
        """End of input at stream time ``t``: drain, last alert pass."""
        self._last_t = t
        self._drain(t)
        if self.alert_engine is not None:
            self._alerts.extend(self.alert_engine.evaluate(t))
            self.alert_engine.finalize()

    def _flush_due(self, now: float) -> None:
        for shard in self.shards:
            batch = shard.batcher.flush_due(now)
            if batch is not None:
                self._dispatch(shard, batch, now)
            elif shard.queue.depth and shard.busy_until <= now:
                self._service(shard, now)
        self._recompute_deadline()

    def _recompute_deadline(self) -> None:
        self._next_deadline = min(
            (shard.batcher.deadline for shard in self.shards), default=math.inf
        )

    def _drain(self, now: float) -> None:
        """Graceful shutdown: flush every batcher, run every queue dry."""
        with self._registry.span("serve.drain"):
            for shard in self.shards:
                batch = shard.batcher.drain(now)
                if batch is not None:
                    self._dispatch(shard, batch, now)
            for shard in self.shards:
                self._service(shard, math.inf)
            self._reap(block=True)
        self._next_deadline = math.inf

    def _dispatch(self, shard: Shard, batch: Batch, now: float) -> None:
        """Move a flushed batch into the shard queue, shedding overflow."""
        self._flush_reasons[batch.reason] = (
            self._flush_reasons.get(batch.reason, 0) + 1
        )
        waits = batch.waits()
        self._waits.append(waits)
        if self._obs_on:
            self._obs_batch_size.observe(float(len(batch)))
            self._obs_wait.observe_many(waits)
        # Service first: completions up to `now` free queue space before
        # admission is decided, minimising spurious sheds.
        self._service(shard, now)
        admitted, shed = shard.queue.offer(batch)
        if shed:
            self._shed(shard, [shard.queue.shed_tail(batch, shed)])
        if self._obs_on:
            self._obs_depth[shard.index].set(shard.queue.depth)
        self._service(shard, now)

    def _shed(
        self, shard: Shard, refused: Sequence[Batch], *, action: Optional[str] = None
    ) -> None:
        """Explicit drop accounting for the rows of batches the queue refused.

        Args:
            action: override the policy verdict — worker-death handling
                always fails closed (``"drop"``) regardless of policy.
        """
        indices = list(chain.from_iterable(batch.indices for batch in refused))
        if not indices:
            return
        if action is None:
            action = SHED_ACTIONS[self.config.policy]
        if self.config.record_verdicts:
            verdict = Verdict(action, table=None, entry_id=None, tenant=self.tenant)
            self._verdicts.append((indices, verdict))
        if self.recorder is not None:
            stamps = np.concatenate([batch.timestamps for batch in refused])
            self.recorder.add_sheds(
                indices, stamps.tolist(), action, shard=shard.index, tenant=self.tenant
            )
        shard.shed += len(indices)

    def _service(self, shard: Shard, now: float) -> None:
        """Run the shard worker forward to stream time ``now``.

        Both executors see the same batches leave the queue at the same
        stream times, and ``busy_until`` advances by the same amounts;
        only where classification runs differs.  Results are applied in
        submit order, opportunistically here and exhaustively at drain.
        With a retrain hook installed every submit is completed at once
        (lockstep), so hook calls see each batch's verdicts in order and
        rule swaps hit a globally empty pipeline.
        """
        if shard.index in self._dead:
            self._drain_dead_shard(shard)
            return
        rate = self.config.service_rate
        queue = shard.queue
        executor = self._executor
        while queue.depth and shard.busy_until <= now:
            batch = queue.pop()
            start = max(shard.busy_until, batch.flush_time)
            if rate is not None:
                shard.busy_until = start + len(batch) / rate
                completion = shard.busy_until
            else:
                completion = start
            try:
                executor.submit_batch(shard.index, batch)
            except WorkerDiedError:
                self._on_worker_death(shard, extra=batch)
                return
            self._pending.append((shard, batch, completion))
            self._reap(block=self._lockstep)

    def _reap(self, *, block: bool) -> None:
        """Complete submitted batches in submit order.

        Args:
            block: wait for every pending batch (drain, lockstep);
                otherwise stop at the first one not yet classified.
        """
        pending = self._pending
        executor = self._executor
        while pending:
            shard, batch, completion = pending[0]
            try:
                if block:
                    result = executor.wait(shard.index)
                else:
                    result = executor.poll(shard.index)
                    if result is None:
                        return
            except WorkerDiedError:
                self._on_worker_death(shard)
                continue
            pending.popleft()
            self._complete(shard, batch, completion, result)

    def _complete(
        self, shard: Shard, batch: Batch, completion: float, result: BatchResult
    ) -> None:
        """Apply one classified batch — the same routine for both executors."""
        verdicts = result.outcome
        n = len(batch)
        self._batch_seconds.append(result.process_seconds)
        latencies = completion - batch.timestamps
        self._latencies.append(latencies)
        shard.processed += n
        shard.count_verdicts(verdicts)
        if self.config.record_verdicts:
            # Tagged with the fleet tenant, if any (shed verdicts are
            # stamped at creation).
            self._verdicts.append((batch.indices, verdicts.with_tenant(self.tenant)))
        if self._remote:
            # The worker only classified: count and record the batch on
            # the parent's shard switch, as the inline switch did itself.
            shard.switch.account(
                verdicts, result.hits, result.keys, result.sizes,
                stamps_of=batch.timestamps.take, seqs=batch.indices,
            )
            if self._obs_on:
                self._obs_worker_batches[shard.index].inc()
                self._obs_worker_batch_seconds.observe(result.process_seconds)
        if self._obs_on:
            self._obs_depth[shard.index].set(shard.queue.depth)
            self._obs_latency.observe_many(latencies)
        if self.retrain_hook is not None:
            new_rules = self.retrain_hook(batch.packet_list(), verdicts)
            if new_rules is not None:
                self._install(new_rules)

    def _install(self, new_rules: RuleSet) -> None:
        """Atomic swap on every shard, between batches.

        The parent :class:`ShardSet` installs first (it owns the rules
        pointer, swap counter, and — on changed offsets — the retired
        stats); the process executor then fans the swap to every worker
        and blocks on the acks.  Lockstep guarantees zero in-flight
        frames, so no batch anywhere straddles the version boundary.
        """
        self.shards.install(new_rules)
        self._attach_recorder()
        self._executor.install(new_rules)
        if self._remote:
            # Fold the worker ack barrier into the recorded swap cost so
            # ShardSet.swap_seconds means "full install" on both executors.
            barrier = self._executor.swap_barrier_seconds[-1]
            self.shards.swap_seconds[-1] += barrier
            if self._obs_on:
                self._obs_swap_barrier.observe(barrier)

    def _on_worker_death(self, shard: Shard, *, extra: Optional[Batch] = None) -> None:
        """Fail a dead worker's shard closed and keep the run going.

        Everything the shard still owed a verdict — the batch being
        submitted, batches in flight in the rings, and batches queued
        behind them — is shed as forced ``drop`` (fail-closed, whatever
        the configured policy), keeping ``offered == processed + shed``
        exact.  The shard is marked dead so later dispatches shed
        immediately; surviving shards are untouched.
        """
        self._dead.add(shard.index)
        owed = [extra] if extra is not None else []
        survivors = []
        for entry in self._pending:
            if entry[0] is shard:
                owed.append(entry[1])
            else:
                survivors.append(entry)
        self._pending.clear()
        self._pending.extend(survivors)
        queue = shard.queue
        while queue.depth:
            owed.append(queue.pop())
        self._shed(shard, owed, action="drop")
        self._obs_parallel_workers.set(len(self.shards) - len(self._dead))
        self._obs_depth[shard.index].set(0)

    def _drain_dead_shard(self, shard: Shard) -> None:
        """Shed (fail-closed) anything queued on a shard whose worker died."""
        refused = []
        queue = shard.queue
        while queue.depth:
            refused.append(queue.pop())
        self._shed(shard, refused, action="drop")

    # -- results -------------------------------------------------------------

    def _result(self, wall: float) -> SoakResult:
        # Sorted before aggregating so the mean does not depend on the
        # order batches completed in.
        latencies = (
            np.sort(np.concatenate(self._latencies))
            if self._latencies
            else np.zeros(1)
        )
        waits = np.concatenate(self._waits) if self._waits else np.zeros(1)
        processed = sum(s.processed for s in self.shards)
        shed = sum(s.shed for s in self.shards)
        duration = (
            self._last_t - self._first_t if self._first_t is not None else 0.0
        )
        per_shard = [
            {
                "shard": shard.index,
                "processed": shard.processed,
                "shed": shard.shed,
                "queue_high_watermark": shard.queue.high_watermark,
                "verdicts": dict(sorted(shard.verdict_counts.items())),
            }
            for shard in self.shards
        ]
        return SoakResult(
            offered=self._offered,
            processed=processed,
            shed=shed,
            wall_seconds=wall,
            process_seconds=sum(self._batch_seconds),
            duration=duration,
            batches=sum(self._flush_reasons.values()),
            flush_reasons=dict(self._flush_reasons),
            latency_p50=float(np.percentile(latencies, 50)),
            latency_p99=float(np.percentile(latencies, 99)),
            latency_mean=float(latencies.mean()),
            batcher_wait_p99=float(np.percentile(waits, 99)),
            rule_swaps=self.shards.rule_swaps,
            stats=self.shards.stats(),
            per_shard=per_shard,
            verdicts=(
                arrival_order(self._offered, self._verdicts)
                if self.config.record_verdicts
                else None
            ),
            alerts=list(self._alerts),
            batch_seconds_p99=(
                float(np.percentile(np.asarray(self._batch_seconds), 99))
                if self._batch_seconds
                else 0.0
            ),
            worker_failures=len(self._dead),
        )


def arrival_order(n: int, parts: Iterable[VerdictPart]) -> List[Verdict]:
    """The verdicts of rows ``0 .. n-1`` in arrival order, from ``parts``.

    Each part is ``(indices, verdicts)``: a :class:`VerdictBatch` or a
    ``Sequence[Verdict]`` with one verdict per index, or one
    :class:`Verdict` that every listed row gets.  Parts are scattered
    into one object array; a row no part lists is a packet lost without
    a verdict, an accounting bug, and raises.
    """
    slots = np.empty(n, dtype=object)
    filled = np.zeros(n, dtype=bool)
    for indices, verdicts in parts:
        if isinstance(verdicts, VerdictBatch):
            verdicts = verdicts.objects()
        elif not isinstance(verdicts, Verdict):
            verdicts = np.array(verdicts, dtype=object)
        slots[indices] = verdicts
        filled[indices] = True
    if not filled.all():
        lost = np.flatnonzero(~filled)
        raise RuntimeError(
            f"{len(lost)} packets lost without a verdict (first: row "
            f"{int(lost[0])}) — accounting bug"
        )
    return slots.tolist()


def _first_reaching(stamps: np.ndarray, peak: np.ndarray, p: int, clock: float) -> int:
    """First row ``>= p`` whose stamp is ``>= clock`` (``len(stamps)`` if none).

    ``peak`` is the running maximum of ``stamps``.  When no row before
    ``p`` reached the clock, the answer is where ``peak[p:]`` first
    does; otherwise (reordered stamps) scan the rows themselves.
    """
    if clock == math.inf:
        return len(stamps)
    if p == 0 or peak[p - 1] < clock:
        return p + int(peak[p:].searchsorted(clock))
    hits = np.flatnonzero(stamps[p:] >= clock)
    return p + int(hits[0]) if hits.size else len(stamps)
