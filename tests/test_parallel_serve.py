"""Tests for the process-parallel serve backend (repro.serve.workers/ipc).

Three layers of coverage:

* the IPC primitives in isolation — SPSC ring handoff order,
  full/empty conditions, frame/result block round-trips, and segment
  lifecycle (owner unlink, context-manager and ``atexit`` cleanup);
* differential equality against the inline backend — verdicts, shed
  accounting, aggregated SwitchStats, per-shard summaries, stream-time
  latencies, and flight-recorder contents must be bit-identical on the
  same retimed trace, including across atomic mid-stream rule swaps
  (same-offsets and changed-offsets) and under ring-full overload;
* lifecycle edges — clean shutdown on source exhaustion leaves no
  orphaned SharedMemory, a worker killed mid-soak fails its shard
  closed (forced drops, exact ``offered == processed + shed``) while
  surviving shards carry on.

The perf gate (≥2.5x aggregate throughput at 4 workers vs inline) is
perf-marked and skips on hosts with fewer than 4 usable cores.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.eval.harness import synthetic_firewall_ruleset
from repro.net.packet import Packet
from repro.obs.flight import FlightRecorder
from repro.serve import (
    FAIL_OPEN,
    ProcessExecutor,
    ServeConfig,
    StreamingGateway,
    WorkerDiedError,
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


def _random_packets(rng, n: int, rate: float = 100_000.0):
    gaps = rng.exponential(1.0 / rate, size=n)
    times = np.cumsum(gaps)
    sizes = rng.integers(40, 128, size=n)
    return [
        Packet(
            data=bytes(rng.integers(0, 256, size=int(size), dtype=np.uint8)),
            timestamp=float(t),
        )
        for t, size in zip(times, sizes)
    ]


def _shm_segments():
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except FileNotFoundError:  # non-Linux fallback: skip the leak checks
        return set()


def _result_key(result):
    """Everything a SoakResult must hold backend-equal (wall-clock excluded)."""
    return (
        result.offered,
        result.processed,
        result.shed,
        result.duration,
        result.batches,
        result.flush_reasons,
        result.latency_p50,
        result.latency_p99,
        result.latency_mean,
        result.batcher_wait_p99,
        result.rule_swaps,
        result.stats,
        result.per_shard,
        result.verdicts,
    )


def _record_key(recorder):
    return sorted(
        (e.seq, e.kind, e.timestamp, e.verdict, e.shard, e.tenant, e.table,
         e.entry_id, e.tables, e.offsets, e.values)
        for e in recorder.records()
    )


class TestShmRing:
    SPEC = RingSpec(slots=4, slot_bytes=64)

    def test_spsc_handoff_in_order(self):
        with ShmRing.create(self.SPEC) as ring:
            reader = ShmRing.attach(ring.name, self.SPEC)
            for round_trip in range(11):  # > slots: exercises wraparound
                view = ring.try_acquire_write()
                assert view is not None
                view[:8].view(np.int64)[0] = round_trip
                ring.commit_write()
                got = reader.try_acquire_read()
                assert got is not None
                assert int(got[:8].view(np.int64)[0]) == round_trip
                reader.commit_read()
            reader.close()

    def test_full_and_empty_conditions(self):
        with ShmRing.create(self.SPEC) as ring:
            reader = ShmRing.attach(ring.name, self.SPEC)
            assert reader.try_acquire_read() is None  # empty
            for _ in range(self.SPEC.slots):
                assert ring.try_acquire_write() is not None
                ring.commit_write()
            assert ring.try_acquire_write() is None  # full
            reader.try_acquire_read()
            reader.commit_read()
            assert ring.try_acquire_write() is not None  # one slot freed
            reader.close()

    def test_single_slot_rejected(self):
        # One slot makes publish and next-ticket values collide; the
        # protocol floor is two slots.
        with pytest.raises(ValueError, match="slots"):
            RingSpec(slots=1, slot_bytes=64)

    def test_context_manager_unlinks_segment(self):
        before = _shm_segments()
        with ShmRing.create(self.SPEC) as ring:
            name = ring.name
            assert _shm_segments() - before
        assert name.lstrip("/") not in _shm_segments()

    def test_attach_does_not_own(self):
        with ShmRing.create(self.SPEC) as ring:
            other = ShmRing.attach(ring.name, self.SPEC)
            other.close()
            other.unlink()  # non-owner: must be a no-op
            assert ring.try_acquire_write() is not None


class TestBlockFormats:
    def test_frame_round_trip(self, rng):
        n, k = 37, 6
        view = np.zeros(frame_slot_bytes(64, k), dtype=np.uint8)
        keys = rng.integers(0, 256, size=(n, k), dtype=np.uint8)
        pack_frame(view, keys)
        assert np.array_equal(unpack_frame(view), keys)
        assert frame_slot_bytes(64, k) == 16 + 64 * k  # header + keys only

    def test_frame_too_large_raises(self, rng):
        view = np.zeros(frame_slot_bytes(16, 4), dtype=np.uint8)
        keys = rng.integers(0, 256, size=(32, 4), dtype=np.uint8)
        with pytest.raises(ValueError):
            pack_frame(view, keys)

    def test_result_round_trip(self, rng):
        n = 29
        view = np.zeros(result_slot_bytes(64), dtype=np.uint8)
        codes = rng.integers(0, 3, size=n).astype(np.uint8)
        table_idx = rng.integers(-1, 3, size=n).astype(np.int16)
        entries = rng.integers(-1, 1000, size=n).astype(np.int64)
        pack_result(view, codes, table_idx, entries, process_seconds=0.125)
        out = unpack_result(view)
        assert np.array_equal(out["codes"], codes)
        assert np.array_equal(out["table_idx"], table_idx)
        assert np.array_equal(out["entries"], entries)
        assert out["process_seconds"] == 0.125

    def test_result_round_trip_with_table_hits(self, rng):
        n, tables = 29, 3
        view = np.zeros(result_slot_bytes(64, tables), dtype=np.uint8)
        codes = rng.integers(0, 3, size=n).astype(np.uint8)
        table_idx = rng.integers(-1, 3, size=n).astype(np.int16)
        entries = rng.integers(-1, 1000, size=n).astype(np.int64)
        rows = rng.integers(0, 500, size=(tables, n))
        pack_result(
            view, codes, table_idx, entries, process_seconds=0.5,
            rows=list(rows), shadows=[3, 0, 7],
        )
        out = unpack_result(view)
        assert np.array_equal(out["codes"], codes)
        assert np.array_equal(out["table_idx"], table_idx)
        assert np.array_equal(out["entries"], entries)
        assert np.array_equal(out["rows"], rows)
        assert out["shadows"] == [3, 0, 7]
        with pytest.raises(ValueError):
            pack_result(
                np.zeros(result_slot_bytes(64), dtype=np.uint8), codes,
                table_idx, entries, process_seconds=0.5, rows=list(rows),
                shadows=[0, 0, 0],
            )


class _SwapHook:
    """Swap to ``rules`` once ``at`` packets have been serviced."""

    def __init__(self, at: int, rules):
        self.at = at
        self.rules = rules
        self.seen = 0
        self.calls = 0

    def __call__(self, packets, verdicts):
        self.calls += 1
        self.seen += len(packets)
        if self.rules is not None and self.seen >= self.at:
            out, self.rules = self.rules, None
            return out
        return None


class TestDifferentialEquality:
    """Process backend ≡ inline backend, bit for bit."""

    def _run(self, packets, executor, *, rules=None, n_shards=3, hook=None,
             recorder=None, **overrides):
        kwargs = dict(
            n_shards=n_shards,
            max_batch=128,
            max_latency=0.002,
            queue_capacity=512,
            service_rate=30_000.0,
            executor=executor,
        )
        kwargs.update(overrides)
        config = ServeConfig(**kwargs)
        gateway = StreamingGateway(
            rules if rules is not None else synthetic_firewall_ruleset(),
            config,
            retrain_hook=hook,
            recorder=recorder,
        )
        return gateway.run(packets)

    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_soak_bit_identical(self, rng, n_shards):
        packets = _random_packets(rng, 4000)
        inline = self._run(packets, "inline", n_shards=n_shards)
        process = self._run(packets, "process", n_shards=n_shards)
        assert _result_key(process) == _result_key(inline)
        assert process.offered == process.processed + process.shed

    def test_overload_shed_accounting_matches(self, rng):
        packets = _random_packets(rng, 6000, rate=200_000.0)
        inline = self._run(
            packets, "inline", service_rate=8_000.0, queue_capacity=256
        )
        process = self._run(
            packets, "process", service_rate=8_000.0, queue_capacity=256
        )
        assert inline.shed > 0  # the scenario actually overloads
        assert _result_key(process) == _result_key(inline)

    def test_mid_stream_swap_three_shards(self, rng):
        packets = _random_packets(rng, 6000)
        rules_v2 = synthetic_firewall_ruleset(seed=9)
        inline = self._run(
            packets, "inline", hook=_SwapHook(2500, rules_v2)
        )
        process = self._run(
            packets, "process", hook=_SwapHook(2500, rules_v2)
        )
        assert inline.rule_swaps == 1
        assert _result_key(process) == _result_key(inline)

    def test_changed_offsets_swap_rebuilds_workers(self, rng):
        packets = _random_packets(rng, 5000)
        rules_v2 = synthetic_firewall_ruleset(
            offsets=(10, 20, 30, 40), seed=4
        )
        inline = self._run(packets, "inline", hook=_SwapHook(2000, rules_v2))
        process = self._run(packets, "process", hook=_SwapHook(2000, rules_v2))
        assert inline.rule_swaps == 1
        assert _result_key(process) == _result_key(inline)

    @pytest.mark.parametrize(
        "sample_rate, n, rate, overrides",
        [
            pytest.param(
                0.05, 5000, 100_000.0,
                dict(service_rate=15_000.0, queue_capacity=256), id="sampled",
            ),
            # Every row recorded, in full 1024-row batches: far more
            # records per batch than one result frame could carry.
            pytest.param(
                1.0, 8192, 2_000_000.0,
                dict(n_shards=2, max_batch=1024, queue_capacity=2**20, service_rate=None),
                id="full",
            ),
        ],
    )
    def test_flight_recorder_parity(self, rng, sample_rate, n, rate, overrides):
        packets = _random_packets(rng, n, rate=rate)
        rec_inline = FlightRecorder(100_000, sample_rate=sample_rate, seed=3)
        rec_process = FlightRecorder(100_000, sample_rate=sample_rate, seed=3)
        inline = self._run(packets, "inline", recorder=rec_inline, **overrides)
        process = self._run(packets, "process", recorder=rec_process, **overrides)
        assert _result_key(process) == _result_key(inline)
        assert _record_key(rec_process) == _record_key(rec_inline)
        assert rec_process.sampled_out == rec_inline.sampled_out
        if sample_rate == 1.0:
            assert len(rec_inline) == n and inline.flush_reasons["full"] > 0

    def test_ring_full_backpressure_keeps_equality(self, rng):
        # ring_slots=2 is the protocol minimum — the tightest legal
        # ring, so nearly every submit blocks on a full frame ring.
        # Ring waits are wall-clock only — stream-time shedding and
        # verdicts must not move.
        packets = _random_packets(rng, 3000)
        inline = self._run(packets, "inline")
        process = self._run(packets, "process", ring_slots=2)
        assert _result_key(process) == _result_key(inline)
        assert process.offered == process.processed + process.shed


class TestWorkerLifecycle:
    def test_clean_shutdown_unlinks_all_segments(self, rng):
        before = _shm_segments()
        packets = _random_packets(rng, 1500)
        config = ServeConfig(
            n_shards=2, max_batch=128, queue_capacity=256,
            executor="process",
        )
        gateway = StreamingGateway(synthetic_firewall_ruleset(), config)
        result = gateway.run(packets)
        assert result.processed == result.offered
        assert _shm_segments() == before
        assert gateway._executor is None

    def test_executor_context_manager_cleans_up_on_exception(self):
        before = _shm_segments()
        rules = synthetic_firewall_ruleset()
        with pytest.raises(RuntimeError, match="boom"):
            with ProcessExecutor(rules, n_shards=2) as executor:
                assert _shm_segments() - before
                raise RuntimeError("boom")
        assert _shm_segments() == before
        assert all(not p.is_alive() for p in executor._procs)

    def test_atexit_guard_unlinks_on_parent_exit(self, tmp_path):
        # A parent that builds an executor and exits without close():
        # the atexit hook must still stop workers and unlink segments.
        script = tmp_path / "leaky_parent.py"
        script.write_text(textwrap.dedent(
            """
            from repro.eval.harness import synthetic_firewall_ruleset
            from repro.serve import ProcessExecutor

            executor = ProcessExecutor(
                synthetic_firewall_ruleset(), n_shards=2
            )
            print("segments", len(executor._frames + executor._results))
            # no close(): atexit must clean up
            """
        ))
        before = _shm_segments()
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, cwd=os.getcwd(), env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "segments 4" in proc.stdout
        assert _shm_segments() == before

    def test_worker_death_fails_shard_closed(self, rng):
        packets = _random_packets(rng, 6000)
        config = ServeConfig(
            n_shards=3, max_batch=128, queue_capacity=256,
            policy=FAIL_OPEN,  # death must force drops anyway
            executor="process",
        )
        gateway = StreamingGateway(synthetic_firewall_ruleset(), config)

        def killing_source():
            for i, packet in enumerate(packets):
                if i == 3000:
                    victim = gateway._executor._procs[0]
                    victim.kill()
                    victim.join()
                yield packet

        result = gateway.run(killing_source())
        assert result.worker_failures == 1
        assert result.offered == result.processed + result.shed
        assert result.shed > 0
        # every packet got a verdict; the dead shard's post-kill traffic
        # is forced-drop even though the policy is fail-open
        assert all(v is not None for v in result.verdicts)
        dead_shard = result.per_shard[0]
        assert dead_shard["shed"] > 0
        # surviving shards serviced their whole load
        for row in result.per_shard[1:]:
            assert row["shed"] == 0

    def test_executor_swap_requires_drained_pipeline(self, rng):
        rules = synthetic_firewall_ruleset()
        packets = _random_packets(rng, 64)
        keys = Packet.batch_keys(packets, rules.offsets)
        sizes = np.fromiter((len(p.data) for p in packets), np.int64, 64)
        with ProcessExecutor(rules, n_shards=1) as executor:
            executor.submit(0, keys, sizes)
            with pytest.raises(RuntimeError, match="in-flight"):
                executor.install(synthetic_firewall_ruleset(seed=2))
            executor.wait(0)
            executor.install(synthetic_firewall_ruleset(seed=2))

    def test_dead_worker_raises_from_wait(self, rng):
        rules = synthetic_firewall_ruleset()
        packets = _random_packets(rng, 64)
        keys = Packet.batch_keys(packets, rules.offsets)
        sizes = np.fromiter((len(p.data) for p in packets), np.int64, 64)
        with ProcessExecutor(rules, n_shards=1) as executor:
            executor._procs[0].kill()
            executor._procs[0].join()
            executor.submit(0, keys, sizes)
            with pytest.raises(WorkerDiedError):
                executor.wait(0)


class TestObservability:
    def test_parallel_metrics_and_switch_mirrors(self, rng):
        from repro import obs

        packets = _random_packets(rng, 2000)
        registry = obs.Registry(enabled=True)
        with obs.use_registry(registry):
            gateway = StreamingGateway(
                synthetic_firewall_ruleset(),
                ServeConfig(
                    n_shards=2, max_batch=128, queue_capacity=256,
                    executor="process",
                ),
            )
            result = gateway.run(packets)
        metrics = registry.snapshot()["metrics"]
        names = {m["name"] for m in metrics}
        for required in (
            "parallel_workers",
            "worker_batches_total",
            "worker_batch_seconds",
            "parallel_ring_full_waits_total",
            "parallel_ring_full_wait_seconds",
        ):
            assert required in names, required
        # Parent-side mirrors of the worker switch counters: `repro
        # stats` must see the same switch series either backend.
        received = [
            m for m in metrics if m["name"] == "switch_packets_received_total"
        ]
        assert received[0]["value"] == result.processed
        by_verdict = {
            m["labels"]["verdict"]: m["value"]
            for m in metrics
            if m["name"] == "switch_packets_total"
        }
        assert by_verdict.get("allow", 0) == result.stats.allowed
        assert by_verdict.get("drop", 0) == result.stats.dropped
        assert by_verdict.get("quarantine", 0) == result.stats.quarantined
        batches = [m for m in metrics if m["name"] == "worker_batches_total"]
        assert sum(m["value"] for m in batches) == result.batches


class TestTableCounters:
    """Direct counters and ``table_*`` series are backend-independent.

    The parent counts them in ``Switch.account`` from the table hits
    the worker ships back, as the inline switch counts its own.
    """

    @pytest.mark.parametrize("swap", [False, True])
    def test_table_counters_match_inline(self, rng, swap):
        from repro import obs

        packets = _random_packets(rng, 4000)
        series = (
            "table_lookups_total",
            "table_hits_total",
            "table_misses_total",
            "table_shadow_hits_total",
        )

        def run(executor):
            registry = obs.Registry(enabled=True)
            hook = _SwapHook(1500, synthetic_firewall_ruleset(seed=9)) if swap else None
            with obs.use_registry(registry):
                gateway = StreamingGateway(
                    synthetic_firewall_ruleset(),
                    ServeConfig(
                        n_shards=2, max_batch=128, queue_capacity=512,
                        executor=executor,
                    ),
                    retrain_hook=hook,
                )
                result = gateway.run(packets)
            assert result.rule_swaps == int(swap)
            tables = [shard.switch.table("firewall") for shard in gateway.shards]
            metrics = {
                m["name"]: m["value"]
                for m in registry.snapshot()["metrics"]
                if m["name"] in series
            }
            return (
                [shard.controller.hit_counts() for shard in gateway.shards],
                [(t.default_counter.packets, t.default_counter.bytes) for t in tables],
                [{e: (c.packets, c.bytes) for e, c in t.counters.items()} for t in tables],
                metrics,
            )

        inline = run("inline")
        process = run("process")
        assert process == inline
        hits, defaults, __, metrics = inline
        assert all(sum(shard) > 0 for shard in hits)
        assert metrics["table_lookups_total"] == len(packets)
        assert metrics["table_lookups_total"] == (
            metrics["table_hits_total"] + metrics["table_misses_total"]
        )
        assert metrics["table_misses_total"] == sum(p for p, __ in defaults)


class TestServeCLI:
    def test_serve_cli_process_executor(self, tmp_path, capsys):
        from repro.cli import main
        from repro.core.serialize import save_ruleset

        rules_path = tmp_path / "rules.json"
        save_ruleset(synthetic_firewall_ruleset(), rules_path)
        code = main([
            "serve", str(rules_path),
            "--synthetic", "inet",
            "--packets", "2000",
            "--rate", "100000",
            "--executor", "process",
            "--shards", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "processed" in out
        assert "shard 1" in out  # one worker process per shard


@pytest.mark.perf
class TestParallelPerformance:
    """The tentpole perf gate: ≥2.5x aggregate throughput at 4 workers.

    Requires real parallelism; on hosts with fewer than 4 usable cores
    the gate skips (the bench phase still records the honest curve).
    """

    @pytest.mark.skipif(
        len(os.sched_getaffinity(0)) < 4 if hasattr(os, "sched_getaffinity")
        else (os.cpu_count() or 1) < 4,
        reason="needs >= 4 usable cores for the 4-worker speedup gate",
    )
    def test_four_workers_beat_inline_by_2_5x(self, rng):
        # Classification-bound: ~20k ternary entries, so the compiled
        # classifier's per-packet work dwarfs the ring hop.
        rules = synthetic_firewall_ruleset(n_rules=1024, fields_per_rule=2)
        packets = _random_packets(rng, 60_000, rate=2_000_000.0)

        def run(executor, n_shards):
            config = ServeConfig(
                n_shards=n_shards,
                max_batch=512,
                queue_capacity=4096,
                record_verdicts=False,
                table_capacity=32_768,
                executor=executor,
            )
            gateway = StreamingGateway(rules, config)
            best = np.inf
            for _ in range(2):
                result = gateway.run(packets)
                best = min(best, result.wall_seconds)
            return len(packets) / best

        inline_rate = run("inline", 4)
        process_rate = run("process", 4)
        assert process_rate >= 2.5 * inline_rate, (
            f"4-worker process backend {process_rate:,.0f} pkt/s vs "
            f"inline {inline_rate:,.0f} pkt/s "
            f"({process_rate / inline_rate:.2f}x < 2.5x)"
        )
