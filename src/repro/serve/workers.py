"""Shard executors: inline, and process-parallel over shared-memory rings.

An executor classifies the batches the gateway's service loop hands it,
behind one interface: :meth:`~ProcessExecutor.submit_batch`, then
:meth:`~ProcessExecutor.poll` / :meth:`~ProcessExecutor.wait` for the
:class:`BatchResult`\\ s in submit order per shard, and
:meth:`~ProcessExecutor.install` between batches.  The gateway applies
every result through one completion routine, whichever executor ran it.

:class:`InlineExecutor` (``ServeConfig(executor="inline")``) classifies
in the event-loop process, on the shard's own switch, at submit time.

:class:`ProcessExecutor` is the multiprocessing backend behind
``ServeConfig(executor="process")``.  Topology: one OS process per
shard, each fed by its own pair of :class:`~repro.serve.ipc.ShmRing`
rings — a *frame* ring (parent → worker: packed key-byte matrices;
the parent keeps the packet sizes) and a *result* ring (worker → parent: verdict codes,
table indices, entry ids, the table hits — per table, the
direct-counter row each key reached and the shadow-hit count — and
the batch's classification time).  A
duplex pipe per worker carries only rare control traffic: startup
handshake, versioned rule swaps, shutdown, and error reports.

Division of labour (and why verdicts stay bit-identical to inline):

* The **parent** keeps every stream-time decision — batching triggers,
  bounded-queue admission and shedding, service-rate clocking, latency
  accounting.  Those are deterministic functions of the arrival
  process in both backends.  It also counts and records every batch,
  on its own shard switch, with
  :meth:`~repro.dataplane.switch.Switch.account`: the code the inline
  backend runs after classifying.  That includes the tables' direct
  counters and ``table_*`` series, counted from the worker's table
  hits; the parent's tables hand out counter rows exactly as the
  worker's do, since both apply the same installs and removes.
* The **worker** only classifies: it builds its shard's switch from a
  serialized RuleSet, services its frame ring with
  :meth:`~repro.dataplane.switch.Switch.classify_keys` on the
  shared-memory key matrix (zero-copy — the batch is classified in
  place before the slot is released), and ships verdict arrays and
  table hits back.
* **Rule swaps** fan out through :meth:`ProcessExecutor.install` only
  when no frame is in flight anywhere, so no batch ever straddles two
  rule versions; each worker applies the swap between batches and
  acks with the new version (the barrier).  Same-offsets swaps use
  the incremental ``GatewayController.update`` path exactly as the
  inline ``ShardSet.install`` does, which keeps entry ids equal
  across backends.

Failure policy: a worker that dies or stops responding surfaces as
:class:`WorkerDiedError` from the executor; the gateway fails that
shard's in-flight and queued packets *closed* (dropped with shed
accounting) and carries on with the surviving shards.
"""

from __future__ import annotations

import atexit
import collections
import dataclasses
import multiprocessing as mp
import time
import traceback
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core.rules import RuleSet
from repro.core.serialize import ruleset_from_dict, ruleset_to_dict
from repro.dataplane.controller import GatewayController
from repro.dataplane.switch import (
    ACTION_CODES,
    CODE_ACTIONS,
    SwitchConfig,
    TableHits,
    VerdictBatch,
)
from repro.serve.ipc import (
    RingSpec,
    ShmRing,
    frame_slot_bytes,
    pack_frame,
    pack_result,
    result_slot_bytes,
    unpack_frame,
    unpack_result,
)
from repro.serve.shard import swap_controller

__all__ = [
    "ACTION_CODES",
    "CODE_ACTIONS",
    "BatchResult",
    "InlineExecutor",
    "ProcessExecutor",
    "WorkerDiedError",
]

#: Poll interval for ring spin-waits, seconds.  Rings hand off through
#: shared memory, so waits are pure back-off, not wake-ups.
_POLL = 0.0002

#: Seconds a worker may stay silent (startup, result, swap ack) before
#: it is declared dead and its shard fails closed.
_TIMEOUT = 30.0

#: Worker start method: ``fork`` where the platform has it, else ``spawn``.
_START_METHOD = "fork" if "fork" in mp.get_all_start_methods() else "spawn"

#: Minimum key-matrix width a frame slot is sized for, so rule swaps
#: that widen the parser (more offsets) still fit without re-ringing.
_MIN_KEY_WIDTH = 32

#: Most tables a worker's switch can consult per batch: result slots
#: are sized for this many tables' hits.
_MAX_TABLES = SwitchConfig.pipeline_depth


class WorkerDiedError(RuntimeError):
    """A shard worker exited, crashed, or stopped responding."""

    def __init__(self, shard: int, reason: str):
        super().__init__(f"shard {shard} worker died: {reason}")
        self.shard = shard
        self.reason = reason


# -- worker side ------------------------------------------------------------


class _ShardWorker:
    """Worker-process state: the shard's deployed switch."""

    def __init__(self, init: Dict):
        self.table_capacity = int(init["table_capacity"])
        self.controller: Optional[GatewayController] = None
        self.install(init["ruleset"])

    @property
    def switch(self):
        return self.controller.switch

    @property
    def table_names(self) -> List[str]:
        return [t.name for t in self.switch.tables]

    def install(self, data: Dict) -> None:
        """Apply a (initial or swapped) rule set between batches.

        The same :func:`~repro.serve.shard.swap_controller` decision as
        ``ShardSet.install``, so entry ids stay equal to inline.  The
        next frame classified rebuilds the LUT program of each changed
        table.
        """
        rules = ruleset_from_dict(data) if isinstance(data, dict) else data
        self.controller = swap_controller(self.controller, rules, self.table_capacity)


def worker_main(
    frame_name: str,
    result_name: str,
    frame_spec: RingSpec,
    result_spec: RingSpec,
    conn,
    init: Dict,
) -> None:
    """Entry point of one shard worker process.

    Services the frame ring until a ``("stop",)`` control message;
    applies ``("swap", version, ruleset_dict)`` messages atomically
    between batches, acking with ``("swapped", version, table_names)``.
    Any exception is reported over the pipe as ``("error", traceback)``
    before the process exits non-zero.
    """
    frames = ShmRing.attach(frame_name, frame_spec)
    results = ShmRing.attach(result_name, result_spec)
    try:
        worker = _ShardWorker(init)
        conn.send(("ready", worker.table_names))
        while True:
            view = frames.try_acquire_read()
            if view is not None:
                start = time.perf_counter()
                keys = unpack_frame(view)
                verdicts, hits = worker.switch.classify_keys(keys)
                frames.commit_read()
                out = results.try_acquire_write()
                while out is None:
                    time.sleep(_POLL)
                    out = results.try_acquire_write()
                pack_result(
                    out,
                    verdicts.codes,
                    verdicts.table_idx,
                    verdicts.entries,
                    process_seconds=time.perf_counter() - start,
                    rows=hits.rows,
                    shadows=hits.shadows,
                )
                results.commit_write()
                continue
            if conn.poll(_POLL):
                message = conn.recv()
                if message[0] == "stop":
                    break
                if message[0] == "swap":
                    _, version, data = message
                    worker.install(data)
                    conn.send(("swapped", version, worker.table_names))
    except (EOFError, KeyboardInterrupt):
        pass
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
        raise
    finally:
        frames.close()
        results.close()
        conn.close()


# -- parent side ------------------------------------------------------------


@dataclasses.dataclass
class BatchResult:
    """One classified batch, as an executor hands it back.

    Attributes:
        outcome: the batch's columnar verdicts.
        process_seconds: wall-clock seconds the classification took.
        hits / keys / sizes: the worker's table hits, and the key
            matrix and packet sizes the batch was submitted with
            (process backend, whose workers only classify: the parent
            counts and records the batch on its own shard switch from
            them; ``None`` inline, where the switch already did).
    """

    outcome: VerdictBatch
    process_seconds: float
    hits: Optional[TableHits] = None
    keys: Optional[np.ndarray] = None
    sizes: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.outcome)


class InlineExecutor:
    """Classify in the event-loop process, with the executor interface.

    :meth:`submit_batch` runs the shard switch's
    :meth:`~repro.dataplane.switch.Switch.process_batch` on the spot
    (once per batch, ``seqs`` as the batch's index list), so the result
    is ready the moment submit returns.  Rule swaps need nothing here:
    the executor reads each shard's live switch from the gateway's
    :class:`~repro.serve.shard.ShardSet`, which installs them.
    """

    def __init__(self, shards):
        self.shards = shards
        self._done: List[Deque[BatchResult]] = [
            collections.deque() for _ in range(len(shards))
        ]

    def submit_batch(self, shard: int, batch) -> None:
        start = time.perf_counter()
        verdicts = self.shards[shard].switch.process_batch(
            batch.packets, seqs=batch.indices
        )
        self._done[shard].append(
            BatchResult(verdicts, time.perf_counter() - start)
        )

    def poll(self, shard: int) -> Optional[BatchResult]:
        done = self._done[shard]
        return done.popleft() if done else None

    def wait(self, shard: int) -> BatchResult:
        result = self.poll(shard)
        if result is None:
            raise RuntimeError(f"shard {shard} has no batch in flight")
        return result

    def install(self, rules: RuleSet) -> None:
        """Nothing to fan out: the shard switches are the ShardSet's."""

    def close(self) -> None:
        pass


class ProcessExecutor:
    """Parent-side handle on the worker fleet.

    Owns the shared-memory rings (created here, unlinked here — a
    context manager plus an ``atexit`` guard so segments never orphan,
    even when the parent dies mid-run), the worker processes, and the
    control pipes.  The API the gateway drives:

    * :meth:`submit_batch` / :meth:`submit` — pack one batch (a serve
      :class:`~repro.serve.batcher.Batch`, or its key matrix and sizes)
      into the shard's frame ring (blocking with
      result-draining back-off when the ring is full);
    * :meth:`poll` / :meth:`wait` — reap :class:`BatchResult`\\ s, in
      submit order per shard;
    * :meth:`install` — the swap barrier: requires zero frames in
      flight, fans the new rule set to every worker, blocks for acks;
    * :meth:`close` — stop workers, join, unlink every segment.

    Any liveness failure (worker exit, startup/ack/result timeout)
    raises :class:`WorkerDiedError` carrying the shard index.
    """

    def __init__(
        self,
        rules: RuleSet,
        *,
        n_shards: int,
        table_capacity: int = 4096,
        max_batch: int = 1024,
        ring_slots: int = 8,
    ):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = n_shards
        self.max_batch = max_batch
        self.key_width_cap = max(len(rules.offsets), _MIN_KEY_WIDTH)
        #: Parser offsets of the installed rule set (key extraction).
        self.offsets = tuple(rules.offsets)
        self.version = 1
        self._closed = False
        # Telemetry the gateway folds into its registry.
        self.ring_full_waits = 0
        self.ring_full_wait_seconds = 0.0
        self.swap_barrier_seconds: List[float] = []

        ctx = mp.get_context(_START_METHOD)
        frame_spec = RingSpec(
            ring_slots, frame_slot_bytes(max_batch, self.key_width_cap)
        )
        result_spec = RingSpec(ring_slots, result_slot_bytes(max_batch, _MAX_TABLES))
        init = {
            "ruleset": ruleset_to_dict(rules),
            "table_capacity": table_capacity,
        }

        self._frames: List[ShmRing] = []
        self._results: List[ShmRing] = []
        self._conns: List = []
        self._procs: List = []
        self._inflight = [0] * n_shards
        self._done: List[Deque[BatchResult]] = [
            collections.deque() for _ in range(n_shards)
        ]
        # Keys and sizes of each in-flight frame, handed back with its
        # result.
        self._submitted: List[Deque[Tuple[np.ndarray, np.ndarray]]] = [
            collections.deque() for _ in range(n_shards)
        ]
        self.table_names: List[str] = []
        try:
            for shard in range(n_shards):
                frames = ShmRing.create(frame_spec)
                results = ShmRing.create(result_spec)
                self._frames.append(frames)
                self._results.append(results)
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                self._conns.append(parent_conn)
                proc = ctx.Process(
                    target=worker_main,
                    args=(
                        frames.name,
                        results.name,
                        frame_spec,
                        result_spec,
                        child_conn,
                        init,
                    ),
                    daemon=True,
                    name=f"repro-shard-{shard}",
                )
                proc.start()
                child_conn.close()
                self._procs.append(proc)
            for shard in range(n_shards):
                message = self._recv_control(shard)
                if message[0] != "ready":
                    raise WorkerDiedError(shard, f"bad handshake {message!r}")
                if shard == 0:
                    self.table_names = list(message[1])
        except BaseException:
            self.close()
            raise
        atexit.register(self.close)

    # -- control-plane plumbing -------------------------------------------

    def _recv_control(self, shard: int):
        """One control message from a worker, with liveness + timeout."""
        conn = self._conns[shard]
        deadline = time.perf_counter() + _TIMEOUT
        while not conn.poll(_POLL):
            if not self._procs[shard].is_alive():
                raise WorkerDiedError(
                    shard, f"exited with code {self._procs[shard].exitcode}"
                )
            if time.perf_counter() > deadline:
                raise WorkerDiedError(shard, "control-message timeout")
        try:
            message = conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerDiedError(shard, f"pipe closed: {exc}") from exc
        if message[0] == "error":
            raise WorkerDiedError(shard, f"worker exception:\n{message[1]}")
        return message

    def _check_error(self, shard: int) -> None:
        """Surface a pending worker error report without blocking."""
        conn = self._conns[shard]
        try:
            if conn.poll(0):
                message = conn.recv()
                if message[0] == "error":
                    raise WorkerDiedError(
                        shard, f"worker exception:\n{message[1]}"
                    )
        except (EOFError, OSError):
            pass

    # -- data plane --------------------------------------------------------

    def submit(self, shard: int, keys: np.ndarray, sizes: np.ndarray) -> None:
        """Ship one batch to a shard worker (blocks while its ring is full)."""
        ring = self._frames[shard]
        view = ring.try_acquire_write()
        if view is None:
            self.ring_full_waits += 1
            start = time.perf_counter()
            deadline = start + _TIMEOUT
            while view is None:
                self._drain_results()
                view = ring.try_acquire_write()
                if view is not None:
                    break
                if not self._procs[shard].is_alive():
                    self._check_error(shard)
                    raise WorkerDiedError(
                        shard, f"exited with code {self._procs[shard].exitcode}"
                    )
                if time.perf_counter() > deadline:
                    raise WorkerDiedError(shard, "frame-ring timeout")
                time.sleep(_POLL)
            self.ring_full_wait_seconds += time.perf_counter() - start
        pack_frame(view, keys)
        ring.commit_write()
        self._inflight[shard] += 1
        self._submitted[shard].append((keys, sizes))

    def submit_batch(self, shard: int, batch) -> None:
        """Ship one serve :class:`~repro.serve.batcher.Batch` to its worker.

        Keys are gathered here from the batch's frame rows, with the
        offsets installed now, since a changed-offsets swap may land
        while a batch is queued.
        """
        rows = batch.packets
        self.submit(shard, rows.keys(self.offsets), rows.sizes())

    def _drain_results(self) -> None:
        """Move every completed result, on any shard, into its done queue."""
        for shard in range(self.n_shards):
            ring = self._results[shard]
            while True:
                view = ring.try_acquire_read()
                if view is None:
                    break
                raw = unpack_result(view)
                ring.commit_read()
                keys, sizes = self._submitted[shard].popleft()
                self._done[shard].append(
                    BatchResult(
                        outcome=VerdictBatch(
                            raw["codes"],
                            raw["table_idx"],
                            raw["entries"],
                            self.table_names,
                        ),
                        process_seconds=raw["process_seconds"],
                        hits=TableHits(raw["rows"], raw["shadows"]),
                        keys=keys,
                        sizes=sizes,
                    )
                )
                self._inflight[shard] -= 1

    def inflight(self, shard: Optional[int] = None) -> int:
        """Frames submitted but not yet reaped (in rings or done queues)."""
        if shard is not None:
            return self._inflight[shard] + len(self._done[shard])
        return sum(self._inflight) + sum(len(d) for d in self._done)

    def poll(self, shard: int) -> Optional[BatchResult]:
        """The next completed batch for ``shard``, or ``None``."""
        if not self._done[shard]:
            self._drain_results()
        if self._done[shard]:
            return self._done[shard].popleft()
        return None

    def wait(self, shard: int) -> BatchResult:
        """Block until the shard's next batch completes."""
        deadline = time.perf_counter() + _TIMEOUT
        while True:
            result = self.poll(shard)
            if result is not None:
                return result
            if self._inflight[shard] <= 0:
                raise RuntimeError(f"shard {shard} has no batch in flight")
            if not self._procs[shard].is_alive():
                self._check_error(shard)
                raise WorkerDiedError(
                    shard, f"exited with code {self._procs[shard].exitcode}"
                )
            if time.perf_counter() > deadline:
                raise WorkerDiedError(shard, "result timeout")
            time.sleep(_POLL)

    # -- rule swaps --------------------------------------------------------

    def install(self, rules: RuleSet) -> None:
        """Atomic rule swap across every worker (the barrier).

        Callers must have reaped every in-flight frame first, so no
        batch anywhere straddles the version boundary; each worker
        applies the swap between batches and acks with the installed
        version number.
        """
        if self.inflight():
            raise RuntimeError(
                "install() requires all in-flight batches reaped "
                f"({self.inflight()} outstanding)"
            )
        if len(rules.offsets) > self.key_width_cap:
            raise ValueError(
                f"rule set has {len(rules.offsets)} key offsets, frame "
                f"slots sized for {self.key_width_cap}"
            )
        start = time.perf_counter()
        version = self.version + 1
        data = ruleset_to_dict(rules)
        for conn in self._conns:
            conn.send(("swap", version, data))
        for shard in range(self.n_shards):
            message = self._recv_control(shard)
            if message[0] != "swapped" or message[1] != version:
                raise WorkerDiedError(shard, f"bad swap ack {message!r}")
            if shard == 0:
                self.table_names = list(message[2])
        self.version = version
        self.offsets = tuple(rules.offsets)
        self.swap_barrier_seconds.append(time.perf_counter() - start)

    # -- lifecycle ---------------------------------------------------------

    def is_alive(self, shard: int) -> bool:
        return self._procs[shard].is_alive()

    def close(self) -> None:
        """Stop workers, join, and release every shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            atexit.unregister(self.close)
        except Exception:
            pass
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=2.0)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=2.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        for ring in self._frames + self._results:
            ring.close()
            ring.unlink()

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
