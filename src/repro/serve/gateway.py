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

Per packet: hash to a shard (consistent flow hash — stateful tables stay
per-flow correct), append to that shard's adaptive batcher; on a size or
deadline trigger the batch moves to the shard's bounded queue, and the
shard worker services queued batches at its configured ``service_rate``
(``None`` = unconstrained, the pure-throughput soak mode).  When a
queue is full the overflow is *shed* with explicit accounting — counted,
given a policy verdict (``fail-open`` ⇒ allowed uninspected,
``fail-closed`` ⇒ dropped), never silently lost.  A retrain hook runs
between batches and may atomically swap the rule set on every shard.

See docs/ARCHITECTURE.md (Serving) for the design discussion and
docs/OBSERVABILITY.md for the instrument catalogue.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro import obs
import repro.obs.registry  # noqa: F401  (module handle resolved below)
import sys

# See dataplane/switch.py: the obs package rebinds `registry` to a function.
_obs_state = sys.modules["repro.obs.registry"]
from repro.obs.events import KIND_SHED, DecisionRecord, event_from_dict
from repro.core.rules import RuleSet
from repro.dataplane.switch import SwitchStats, Verdict
from repro.net.packet import Packet
from repro.serve.batcher import Batch
from repro.serve.shard import Shard, ShardSet, flow_shard
from repro.serve.workers import (
    CODE_ACTIONS,
    BatchResult,
    ProcessExecutor,
    WorkerDiedError,
)

__all__ = [
    "FAIL_CLOSED",
    "FAIL_OPEN",
    "ServeConfig",
    "SoakResult",
    "StreamingGateway",
]

#: Load-shedding policies: what happens to packets the queues cannot hold.
FAIL_OPEN = "fail-open"      # shed traffic passes uninspected (availability)
FAIL_CLOSED = "fail-closed"  # shed traffic is dropped (security)

#: Retrain hook signature: (batch packets, their verdicts) → optional new
#: rule set to install atomically across all shards.
RetrainHook = Callable[[List[Packet], List[Verdict]], Optional[RuleSet]]


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
            backend).  A full frame ring blocks the submitter in wall
            clock (accounted, never shed) — stream-time shedding stays
            with the bounded queues, identical to inline.
        worker_timeout: seconds a worker may stay silent (startup,
            result, swap ack) before the gateway declares it dead and
            fails its shard closed.
        start_method: multiprocessing start method for workers
            (``None`` picks ``fork`` when available, else ``spawn``).
        tenants: multi-tenant fleet mode — a sequence of
            :class:`repro.fleet.TenantSpec`.  Consumed by
            :class:`repro.fleet.FleetGateway` (and ``repro serve
            --tenants``); :class:`StreamingGateway` itself refuses a
            tenants-bearing config and directs you there.
        fleet_capacity: shared table budget in ternary entries for
            fleet mode; ``None`` sizes the budget to fit every declared
            tenant exactly.
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
    worker_timeout: float = 30.0
    start_method: Optional[str] = None
    tenants: Optional[Sequence] = None
    fleet_capacity: Optional[int] = None

    def __post_init__(self) -> None:
        if self.policy not in (FAIL_OPEN, FAIL_CLOSED):
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
        if self.ring_slots < 1:
            raise ValueError("ring_slots must be >= 1")
        if self.worker_timeout <= 0:
            raise ValueError("worker_timeout must be positive")
        if self.tenants is not None and not self.tenants:
            raise ValueError("tenants must be a non-empty sequence (or None)")
        if self.fleet_capacity is not None and self.fleet_capacity < 1:
            raise ValueError("fleet_capacity must be >= 1 (or None)")


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
        if self.config.tenants is not None:
            raise ValueError(
                "ServeConfig.tenants is fleet mode — construct a "
                "repro.fleet.FleetGateway (or `repro serve --tenants`) "
                "instead of a StreamingGateway"
            )
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
        self._executor: Optional[ProcessExecutor] = None
        self.retrain_hook = retrain_hook
        self.recorder = recorder
        self.alert_engine = alert_engine
        self.alert_interval = alert_interval
        self._attach_recorder()
        self._capture_obs()
        self._reset_run_state()

    def _capture_obs(self) -> None:
        self._registry = obs.registry()
        self._obs_gen = _obs_state.generation()
        self._obs_on = self._registry.enabled
        self._init_instruments()

    def _sync_obs(self) -> None:
        # One int compare per run; see registry._generation.
        if _obs_state._generation != self._obs_gen:
            self._capture_obs()

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

    def _init_instruments(self) -> None:
        registry = self._registry
        self._obs_offered = registry.counter(
            "serve_offered_packets_total",
            help="packets offered to the gateway by the source",
        )
        self._obs_batch_size = registry.histogram(
            "serve_batch_size",
            buckets=[float(2 ** i) for i in range(13)],
            help="packets per flushed batch",
        )
        self._obs_batches = {
            reason: registry.counter(
                "serve_batches_total", {"reason": reason},
                help="flushed batches by trigger",
            )
            for reason in ("full", "deadline", "drain")
        }
        self._obs_wait = registry.histogram(
            "serve_batcher_wait_seconds", unit="s",
            help="stream-time wait from packet arrival to batch flush",
        )
        self._obs_latency = registry.histogram(
            "serve_e2e_latency_seconds", unit="s",
            help="stream-time latency from arrival to verdict",
        )
        self._obs_swaps = registry.counter(
            "serve_rule_swaps_total",
            help="atomic rule-set swaps installed across all shards",
        )
        self._obs_depth = {}
        self._obs_shed = {}
        self._obs_shard_pkts = {}
        for shard in self.shards:
            label = {"shard": str(shard.index)}
            self._obs_depth[shard.index] = registry.gauge(
                "serve_queue_depth", label,
                help="packets queued per shard awaiting service",
            )
            self._obs_shed[shard.index] = registry.counter(
                "serve_shed_packets_total",
                {**label, "policy": self.config.policy},
                help="packets shed by the backpressure policy",
            )
            self._obs_shard_pkts[shard.index] = registry.counter(
                "serve_shard_packets_total", label,
                help="packets classified per shard",
            )
        if self.config.executor == "process":
            self._init_parallel_instruments(registry)

    def _init_parallel_instruments(self, registry) -> None:
        """Process-backend instruments + parent-side switch mirrors.

        Worker processes bump their own (invisible) registries, so the
        parent re-emits the documented ``switch_*`` series from reaped
        verdict arrays — ``repro stats`` and alert rules see the same
        counters either backend.
        """
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
        self._obs_worker_failures = registry.counter(
            "worker_failures_total",
            help="shard workers that died mid-run (traffic failed closed)",
        )
        self._obs_ring_full_waits = registry.counter(
            "parallel_ring_full_waits_total",
            help="submits that blocked on a full frame ring",
        )
        self._obs_ring_full_wait_seconds = registry.counter(
            "parallel_ring_full_wait_seconds", unit="s",
            help="wall-clock seconds spent blocked on full frame rings",
        )
        self._obs_swap_barrier = registry.histogram(
            "parallel_swap_barrier_seconds", unit="s",
            help="wall-clock seconds per cross-worker rule-swap barrier",
        )
        self._obs_records_dropped = registry.counter(
            "worker_records_dropped_total",
            help="decision records dropped by the result-ring budget",
        )
        self._obs_sw_verdicts = {
            action: registry.counter(
                "switch_packets_total", {"verdict": action},
                help="packets by final pipeline verdict",
            )
            for action in CODE_ACTIONS
        }
        self._obs_sw_bytes = {
            action: registry.counter(
                "switch_bytes_total", {"verdict": action}, unit="bytes",
                help="payload bytes by final pipeline verdict",
            )
            for action in CODE_ACTIONS
        }
        self._obs_sw_received = registry.counter(
            "switch_packets_received_total",
            help="packets entering the pipeline",
        )
        self._obs_sw_bytes_received = registry.counter(
            "switch_bytes_received_total", unit="bytes",
            help="payload bytes entering the pipeline",
        )

    def _reset_run_state(self) -> None:
        # A SoakResult describes exactly one run: shard counters, switch
        # stats and the queueing clock all start fresh so the accounting
        # invariant (offered == processed + shed == stats.received + shed)
        # holds per run.
        self.shards.reset()
        self._verdicts: List[Optional[Verdict]] = []
        self._latencies: List[float] = []
        self._waits: List[float] = []
        self._offered = 0
        self._offered_reported = 0
        self._batches = 0
        self._flush_reasons: Dict[str, int] = {}
        self._process_seconds = 0.0
        self._next_deadline = math.inf
        self._next_alert_t = math.inf
        self._alerts: List[object] = []
        self._first_t: Optional[float] = None
        self._last_t = 0.0
        self._batch_seconds: List[float] = []
        # Process-backend state: per-shard FIFOs of submitted-but-unreaped
        # batches, dead-worker bookkeeping, and the current parser offsets
        # (cached so submits don't chase the rules object through swaps).
        self._pending: List[object] = [
            collections.deque() for _ in self.shards
        ]
        self._dead: set = set()
        self._worker_failures = 0
        self._offsets = tuple(self.shards.rules.offsets)
        self._lockstep = self.retrain_hook is not None

    # -- the event loop ------------------------------------------------------

    def run(self, source: Iterable[Packet]) -> SoakResult:
        """Consume a source to exhaustion, then drain; returns the result."""
        self._sync_obs()
        self._reset_run_state()
        config = self.config
        record = config.record_verdicts
        hash_mode = config.hash_mode
        if config.executor == "process":
            self._executor = ProcessExecutor(
                self.shards.rules,
                n_shards=config.n_shards,
                table_capacity=config.table_capacity,
                max_batch=config.max_batch,
                ring_slots=config.ring_slots,
                recorder=self.recorder,
                start_method=config.start_method,
                timeout=config.worker_timeout,
            )
            if self._obs_on:
                self._obs_parallel_workers.set(config.n_shards)
        wall_start = time.perf_counter()
        try:
            return self._run_stream(source, record, hash_mode, wall_start)
        finally:
            if self._executor is not None:
                if self._obs_on:
                    self._obs_ring_full_waits.inc(self._executor.ring_full_waits)
                    self._obs_ring_full_wait_seconds.inc(
                        self._executor.ring_full_wait_seconds
                    )
                    self._obs_records_dropped.inc(self._executor.records_dropped)
                    self._obs_parallel_workers.set(0)
                self._executor.close()
                self._executor = None

    def _run_stream(
        self, source: Iterable[Packet], record: bool, hash_mode: str,
        wall_start: float,
    ) -> SoakResult:
        shards = self.shards.shards
        n_shards = len(shards)
        # Per-packet state lives in locals; the attributes are synced
        # before the calls that read them and after the loop.
        offered = self._offered
        first_t = self._first_t
        next_deadline = self._next_deadline
        next_alert_t = self._next_alert_t
        t = self._last_t
        with self._registry.span("serve.soak"):
            for packet in source:
                t = packet.timestamp
                if first_t is None:
                    first_t = self._first_t = t
                    if self.alert_engine is not None:
                        next_alert_t = t + self.alert_interval
                if t >= next_deadline:
                    self._flush_due(t)
                    next_deadline = self._next_deadline
                if t >= next_alert_t:
                    self._offered = offered
                    self._evaluate_alerts(t)
                    next_alert_t = t + self.alert_interval
                if record:
                    self._verdicts.append(None)
                shard = shards[
                    flow_shard(packet, n_shards, mode=hash_mode)
                    if n_shards > 1
                    else 0
                ]
                batcher = shard.batcher
                batch = batcher.add(packet, offered)
                offered += 1
                if batch is not None:
                    self._dispatch(shard, batch, t)
                    self._recompute_deadline()
                    next_deadline = self._next_deadline
                elif len(batcher._packets) == 1:
                    # A batch just opened; its deadline may be the next.
                    # (len() of the list skips a Python-level __len__.)
                    if batcher.deadline < next_deadline:
                        next_deadline = self._next_deadline = batcher.deadline
            self._offered = offered
            self._next_alert_t = next_alert_t
            self._last_t = t
            self._drain(t)
            if self.alert_engine is not None:
                self._evaluate_alerts(self._last_t)
                self.alert_engine.finalize()
        wall = time.perf_counter() - wall_start
        return self._result(wall)

    def _evaluate_alerts(self, now: float) -> None:
        """One stream-time alert evaluation against current counters.

        Ratio rules (shed rate) need the offered denominator current
        *mid-run*, so the offered counter is synced incrementally here
        rather than only at run end.
        """
        if self._obs_on:
            delta = self._offered - self._offered_reported
            if delta:
                self._obs_offered.inc(delta)
                self._offered_reported = self._offered
        self._alerts.extend(self.alert_engine.evaluate(now))

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
            if self._executor is not None:
                self._await_pending()
        self._next_deadline = math.inf

    def _dispatch(self, shard: Shard, batch: Batch, now: float) -> None:
        """Move a flushed batch into the shard queue, shedding overflow."""
        self._batches += 1
        self._flush_reasons[batch.reason] = (
            self._flush_reasons.get(batch.reason, 0) + 1
        )
        waits = batch.waits()
        self._waits.extend(waits)
        if self._obs_on:
            self._obs_batch_size.observe(float(len(batch)))
            self._obs_batches[batch.reason].inc()
            for wait in waits:
                self._obs_wait.observe(wait)
        # Service first: completions up to `now` free queue space before
        # admission is decided, minimising spurious sheds.
        self._service(shard, now)
        admitted, shed = shard.queue.offer(batch)
        if shed:
            self._shed(shard, shard.queue.shed_tail(batch, shed))
        if self._obs_on:
            self._obs_depth[shard.index].set(shard.queue.depth)
        self._service(shard, now)

    def _shed(self, shard: Shard, refused, *, action: Optional[str] = None) -> None:
        """Explicit drop accounting for packets the queue refused.

        Args:
            action: override the policy verdict — worker-death handling
                always fails closed (``"drop"``) regardless of policy.
        """
        if action is None:
            action = "allow" if self.config.policy == FAIL_OPEN else "drop"
        verdict = Verdict(action, table=None, entry_id=None, tenant=self.tenant)
        record = self.config.record_verdicts
        recorder = self.recorder
        for packet, index in refused:
            if record:
                self._verdicts[index] = verdict
            if recorder is not None:
                # Shed records are critical: never sampled, never evicted
                # before a permit — the dump holds every shed packet.
                recorder.add(
                    DecisionRecord(
                        kind=KIND_SHED,
                        seq=index,
                        timestamp=packet.timestamp,
                        verdict=action,
                        shard=shard.index,
                        tenant=self.tenant,
                    )
                )
        shard.shed += len(refused)
        if self._obs_on:
            self._obs_shed[shard.index].inc(len(refused))

    def _service(self, shard: Shard, now: float) -> None:
        """Run the shard worker forward to stream time ``now``."""
        if self._executor is not None:
            self._service_process(shard, now)
        else:
            self._service_inline(shard, now)

    def _service_inline(self, shard: Shard, now: float) -> None:
        config = self.config
        rate = config.service_rate
        record = config.record_verdicts
        queue = shard.queue
        while queue.depth and shard.busy_until <= now:
            batch = queue.pop()
            start = max(shard.busy_until, batch.flush_time)
            process_start = time.perf_counter()
            verdicts = shard.switch.process_batch(
                batch.packets, seqs=batch.indices
            )
            elapsed = time.perf_counter() - process_start
            self._process_seconds += elapsed
            self._batch_seconds.append(elapsed)
            if rate is not None:
                shard.busy_until = start + len(batch) / rate
                completion = shard.busy_until
            else:
                completion = start
            self._latencies.extend(
                [completion - p.timestamp for p in batch.packets]
            )
            shard.processed += len(batch)
            shard.count_verdicts(verdicts)
            if record:
                out = self._verdicts
                for index, verdict in zip(batch.indices, verdicts):
                    out[index] = verdict
            if self._obs_on:
                self._obs_shard_pkts[shard.index].inc(len(batch))
                self._obs_depth[shard.index].set(queue.depth)
                for latency in (completion - p.timestamp for p in batch.packets):
                    self._obs_latency.observe(latency)
            if self.retrain_hook is not None:
                new_rules = self.retrain_hook(batch.packets, verdicts)
                if new_rules is not None:
                    self.shards.install(new_rules)
                    self._attach_recorder()
                    if self._obs_on:
                        self._obs_swaps.inc()

    # -- process backend ---------------------------------------------------

    def _service_process(self, shard: Shard, now: float) -> None:
        """Process-backend service: ship serviceable batches to the worker.

        Stream-time semantics are identical to :meth:`_service_inline`
        — the same batches leave the queue at the same stream times and
        ``busy_until`` advances by the same amounts — only the
        classification happens remotely.  Verdicts are applied at reap
        (FIFO per shard), opportunistically here and exhaustively at
        drain.  With a retrain hook installed the loop runs in
        lockstep (every submit reaped immediately) so hook calls see
        each batch's verdicts in the inline order and rule swaps hit a
        globally empty pipeline.
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
            n = len(batch)
            keys = Packet.batch_keys(batch.packets, self._offsets)
            sizes = np.fromiter(
                (len(p.data) for p in batch.packets), dtype=np.int64, count=n
            )
            timestamps = np.fromiter(
                (p.timestamp for p in batch.packets), dtype=np.float64, count=n
            )
            seqs = np.asarray(batch.indices, dtype=np.int64)
            if rate is not None:
                shard.busy_until = start + n / rate
                completion = shard.busy_until
            else:
                completion = start
            try:
                executor.submit(shard.index, keys, sizes, timestamps, seqs)
            except WorkerDiedError:
                self._on_worker_death(shard, extra=(batch, sizes))
                return
            self._pending[shard.index].append((batch, sizes, completion))
            if self._lockstep:
                try:
                    result = executor.wait(shard.index)
                except WorkerDiedError:
                    self._on_worker_death(shard)
                    return
                verdicts = self._complete(shard, result)
                new_rules = self.retrain_hook(batch.packets, verdicts)
                if new_rules is not None:
                    self._install_process(new_rules)
            else:
                self._reap()

    def _install_process(self, new_rules: RuleSet) -> None:
        """Atomic swap, both sides: parent bookkeeping + worker barrier.

        The parent :class:`ShardSet` installs first (it owns the rules
        pointer, swap counter, and — on changed offsets — the retired
        stats), then the executor fans the swap to every worker and
        blocks on the acks.  Callers guarantee zero in-flight frames,
        so no batch anywhere straddles the version boundary.
        """
        self.shards.install(new_rules)
        self._attach_recorder()
        self._offsets = tuple(new_rules.offsets)
        self._executor.install(new_rules)
        # Fold the worker ack barrier into the recorded swap cost so
        # ShardSet.swap_seconds means "full install" on both executors.
        self.shards.swap_seconds[-1] += self._executor.swap_barrier_seconds[-1]
        if self._obs_on:
            self._obs_swaps.inc()
            self._obs_swap_barrier.observe(
                self._executor.swap_barrier_seconds[-1]
            )

    def _reap(self) -> None:
        """Apply every already-completed batch (non-blocking)."""
        executor = self._executor
        for shard in self.shards:
            if shard.index in self._dead:
                continue
            while True:
                result = executor.poll(shard.index)
                if result is None:
                    break
                self._complete(shard, result)

    def _await_pending(self) -> None:
        """Block until every submitted batch is reaped (drain barrier)."""
        executor = self._executor
        for shard in self.shards:
            if shard.index in self._dead:
                continue
            while self._pending[shard.index]:
                try:
                    result = executor.wait(shard.index)
                except WorkerDiedError:
                    self._on_worker_death(shard)
                    break
                self._complete(shard, result)

    def _complete(self, shard: Shard, result: BatchResult) -> Optional[List[Verdict]]:
        """Apply one reaped worker result — the deferred half of service."""
        batch, sizes, completion = self._pending[shard.index].popleft()
        n = len(batch)
        codes = result.codes
        record = self.config.record_verdicts
        self._process_seconds += result.process_seconds
        self._batch_seconds.append(result.process_seconds)
        self._latencies.extend(completion - p.timestamp for p in batch.packets)
        shard.processed += n
        # Parent-side stats accumulation: exactly the increments the
        # worker's switch made, derived from the verdict codes — so
        # ``ShardSet.stats()`` aggregates identically to inline (and
        # survives worker death, unlike collecting stats at exit).
        dropped = codes == 1
        quarantined = codes == 2
        n_drop = int(dropped.sum())
        n_quar = int(quarantined.sum())
        stats = shard.switch.stats
        stats.received += n
        stats.bytes_received += int(sizes.sum())
        stats.dropped += n_drop
        stats.quarantined += n_quar
        stats.allowed += n - n_drop - n_quar
        stats.bytes_dropped += int(sizes[dropped].sum())
        stats.bytes_quarantined += int(sizes[quarantined].sum())
        for code, count in zip(*np.unique(codes, return_counts=True)):
            action = CODE_ACTIONS[int(code)]
            shard.verdict_counts[action] = (
                shard.verdict_counts.get(action, 0) + int(count)
            )
        verdicts: Optional[List[Verdict]] = None
        if record or self._lockstep:
            verdicts = result.verdicts(self._executor.table_names)
        if record:
            out = self._verdicts
            for index, verdict in zip(batch.indices, verdicts):
                out[index] = verdict
        if self.recorder is not None:
            # Workers don't know their tenant; stamp identity parent-side
            # so process-backend records match inline bit for bit.
            tenant = self.tenant
            for data in result.records:
                if tenant is not None:
                    data["tenant"] = tenant
                self.recorder.add(event_from_dict(data))
            if result.sampled_out:
                self.recorder.note_sampled_out(result.sampled_out)
        if self._obs_on:
            self._obs_shard_pkts[shard.index].inc(n)
            self._obs_depth[shard.index].set(shard.queue.depth)
            for latency in (completion - p.timestamp for p in batch.packets):
                self._obs_latency.observe(latency)
            self._obs_worker_batches[shard.index].inc()
            self._obs_worker_batch_seconds.observe(result.process_seconds)
            self._obs_sw_received.inc(n)
            self._obs_sw_bytes_received.inc(int(sizes.sum()))
            self._obs_sw_verdicts["drop"].inc(n_drop)
            self._obs_sw_verdicts["quarantine"].inc(n_quar)
            self._obs_sw_verdicts["allow"].inc(n - n_drop - n_quar)
            self._obs_sw_bytes["drop"].inc(int(sizes[dropped].sum()))
            self._obs_sw_bytes["quarantine"].inc(int(sizes[quarantined].sum()))
            self._obs_sw_bytes["allow"].inc(
                int(sizes.sum() - sizes[dropped].sum() - sizes[quarantined].sum())
            )
        return verdicts

    def _on_worker_death(self, shard: Shard, *, extra=None) -> None:
        """Fail a dead worker's shard closed and keep the run going.

        Everything the shard still owed a verdict — the batch being
        submitted, batches in flight in the rings, and batches queued
        behind them — is shed as forced ``drop`` (fail-closed, whatever
        the configured policy), keeping ``offered == processed + shed``
        exact.  The shard is marked dead so later dispatches shed
        immediately; surviving shards are untouched.
        """
        self._dead.add(shard.index)
        self._worker_failures += 1
        refused = []
        if extra is not None:
            batch, _ = extra
            refused.extend(zip(batch.packets, batch.indices))
        for batch, _, _ in self._pending[shard.index]:
            refused.extend(zip(batch.packets, batch.indices))
        self._pending[shard.index].clear()
        queue = shard.queue
        while queue.depth:
            batch = queue.pop()
            refused.extend(zip(batch.packets, batch.indices))
        self._shed(shard, refused, action="drop")
        if self._obs_on:
            self._obs_worker_failures.inc()
            self._obs_parallel_workers.set(
                len(self.shards) - len(self._dead)
            )
            self._obs_depth[shard.index].set(0)

    def _drain_dead_shard(self, shard: Shard) -> None:
        """Shed (fail-closed) anything queued on a shard whose worker died."""
        refused = []
        queue = shard.queue
        while queue.depth:
            batch = queue.pop()
            refused.extend(zip(batch.packets, batch.indices))
        if refused:
            self._shed(shard, refused, action="drop")

    # -- results -------------------------------------------------------------

    def _result(self, wall: float) -> SoakResult:
        if self._obs_on:
            self._obs_offered.inc(self._offered - self._offered_reported)
            self._offered_reported = self._offered
        # Sorted before aggregating so the mean is independent of batch
        # completion order (the process backend reaps shards in a
        # different interleaving than inline services them).
        latencies = (
            np.sort(self._latencies) if self._latencies else np.zeros(1)
        )
        waits = np.asarray(self._waits) if self._waits else np.zeros(1)
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
        verdicts: Optional[List[Verdict]] = None
        if self.config.record_verdicts:
            assert all(v is not None for v in self._verdicts), (
                "packet lost without a verdict — accounting bug"
            )
            verdicts = list(self._verdicts)
            if self.tenant is not None:
                # Fleet mode: tag pipeline verdicts with the serving
                # tenant (shed verdicts were stamped at creation).
                verdicts = [
                    v if v.tenant == self.tenant
                    else dataclasses.replace(v, tenant=self.tenant)
                    for v in verdicts
                ]
        return SoakResult(
            offered=self._offered,
            processed=processed,
            shed=shed,
            wall_seconds=wall,
            process_seconds=self._process_seconds,
            duration=duration,
            batches=self._batches,
            flush_reasons=dict(self._flush_reasons),
            latency_p50=float(np.percentile(latencies, 50)),
            latency_p99=float(np.percentile(latencies, 99)),
            latency_mean=float(latencies.mean()),
            batcher_wait_p99=float(np.percentile(waits, 99)),
            rule_swaps=self.shards.rule_swaps,
            stats=self.shards.stats(),
            per_shard=per_shard,
            verdicts=verdicts,
            alerts=list(self._alerts),
            batch_seconds_p99=(
                float(np.percentile(np.asarray(self._batch_seconds), 99))
                if self._batch_seconds
                else 0.0
            ),
            worker_failures=self._worker_failures,
        )
