"""Tests for the streaming gateway subsystem (repro.serve).

Covers the pieces in isolation (batcher, bounded queue, flow hash,
sources) and the composed event loop: differential equality against the
offline batch replay, explicit shed accounting under overload (never
silent loss, never deadlock), fail-open vs. fail-closed semantics,
per-flow shard consistency, and the drift → retrain → atomic-rule-swap
path where no packet may observe a half-installed rule set.  The
perf-marked soak asserts the E17 acceptance bar: sustained throughput
≥ 80% of the offline ``process_batch`` replay at batch 1024 with the
p99 batcher wait under the configured bound.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from repro.core.rules import ACTION_DROP, MatchField, Rule, RuleSet
from repro.dataplane.switch import SwitchStats, Verdict, VerdictBatch
from repro.eval.harness import replay_gateway, synthetic_firewall_ruleset
from repro.net.frames import FrameBlock
from repro.net.packet import Label, Packet
from repro.serve import (
    FAIL_CLOSED,
    FAIL_OPEN,
    AdaptiveBatcher,
    BoundedQueue,
    ServeConfig,
    StreamingGateway,
    SyntheticSource,
    flow_shard,
    retime,
)
from repro.serve.batcher import Batch
from repro.serve.gateway import arrival_order


def _packet(t: float, data: bytes = b"\x00" * 64) -> Packet:
    return Packet(data=data, timestamp=t)


def _random_packets(rng, n: int, rate: float = 100_000.0):
    """Uniform random byte packets with Poisson-ish arrivals."""
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


class TestAdaptiveBatcher:
    def test_size_trigger(self):
        batcher = AdaptiveBatcher(max_batch=3, max_latency=1.0)
        assert batcher.add(_packet(0.0), 0) is None
        assert batcher.add(_packet(0.1), 1) is None
        batch = batcher.add(_packet(0.2), 2)
        assert batch is not None and len(batch) == 3
        assert batch.reason == "full"
        assert batch.indices == [0, 1, 2]
        assert len(batcher) == 0

    def test_deadline_trigger_flushes_at_deadline_time(self):
        batcher = AdaptiveBatcher(max_batch=100, max_latency=0.005)
        batcher.add(_packet(1.0), 0)
        assert not batcher.due(1.004)
        assert batcher.flush_due(1.004) is None
        batch = batcher.flush_due(1.010)
        assert batch is not None and batch.reason == "deadline"
        # the timer fires at the deadline, not at the observing event
        assert batch.flush_time == pytest.approx(1.005)
        assert max(batch.waits()) <= 0.005 + 1e-12

    def test_drain_respects_latency_bound(self):
        batcher = AdaptiveBatcher(max_batch=100, max_latency=0.005)
        batcher.add(_packet(2.0), 0)
        batch = batcher.drain(2.002)
        assert batch is not None and batch.reason == "drain"
        assert max(batch.waits()) <= 0.005 + 1e-12
        assert batcher.drain(2.0) is None  # now empty

    def test_add_flushes_like_add_rows(self):
        packets = [_packet(0.5), _packet(0.2), _packet(0.9)]  # reordered stamps
        via_add = AdaptiveBatcher(max_batch=3, max_latency=1.0)
        via_rows = AdaptiveBatcher(max_batch=3, max_latency=1.0)
        block = FrameBlock.of(packets)
        rows = np.arange(3)
        for index, packet in enumerate(packets):
            expected = via_add.add(packet, 7 + index)
            via_rows.add_rows(block, rows, index, index + 1, 7)
            assert via_rows.deadline == 1.5
            assert expected is not None or via_add.deadline == 1.5
        assert len(via_add) == 0 and len(via_rows) == 3
        got = via_rows.flush_full()
        assert (got.indices, got.flush_time, got.reason) == (
            expected.indices, expected.flush_time, expected.reason
        )
        assert got.indices == [7, 8, 9]
        assert got.timestamps.tolist() == expected.timestamps.tolist() == [0.5, 0.2, 0.9]
        assert got.waits().tolist() == expected.waits().tolist()
        assert got.packet_list() == expected.packet_list() == packets
        # Deadline and drain flushes agree too.
        via_add.add(packets[1], 0)
        via_rows.add_rows(block, rows, 1, 2, -1)
        first, second = via_add.flush_due(2.0), via_rows.flush_due(2.0)
        assert (first.indices, first.flush_time, first.reason) == (
            second.indices, second.flush_time, second.reason
        ) == ([0], 1.2, "deadline")
        via_add.add(packets[2], 4)
        via_rows.add_rows(block, rows, 2, 3, 2)
        first, second = via_add.drain(1.0), via_rows.drain(1.0)
        assert (first.indices, first.flush_time, first.reason) == (
            second.indices, second.flush_time, second.reason
        ) == ([4], 1.0, "drain")
        assert len(via_add) == len(via_rows) == 0

    def test_empty_deadline_is_inf(self):
        batcher = AdaptiveBatcher()
        assert batcher.deadline == float("inf")
        assert not batcher.due(1e12)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveBatcher(max_batch=0)
        with pytest.raises(ValueError):
            AdaptiveBatcher(max_latency=0.0)


class TestBoundedQueue:
    def _batch(self, n, start_index=0):
        return Batch(
            [_packet(float(i)) for i in range(n)],
            list(range(start_index, start_index + n)),
            0.0,
            "full",
            np.arange(n, dtype=np.float64),
        )

    def test_offer_within_capacity(self):
        queue = BoundedQueue(10)
        admitted, shed = queue.offer(self._batch(4))
        assert shed == 0 and len(admitted) == 4
        assert queue.depth == 4 and queue.high_watermark == 4

    def test_offer_partial_tail_drop(self):
        queue = BoundedQueue(5)
        queue.offer(self._batch(3))
        batch = self._batch(4, start_index=3)
        admitted, shed = queue.offer(batch)
        assert shed == 2 and len(admitted) == 2
        # the refused packets are exactly the batch tail
        refused = queue.shed_tail(batch, shed)
        assert refused.indices == [5, 6]
        assert refused.timestamps.tolist() == [2.0, 3.0]
        assert refused.packet_list() == batch.packet_list()[2:]

    def test_offer_when_full_refuses_everything(self):
        queue = BoundedQueue(3)
        queue.offer(self._batch(3))
        admitted, shed = queue.offer(self._batch(2, start_index=3))
        assert admitted is None and shed == 2

    def test_pop_restores_space(self):
        queue = BoundedQueue(3)
        queue.offer(self._batch(3))
        queue.pop()
        assert queue.depth == 0
        __, shed = queue.offer(self._batch(2))
        assert shed == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundedQueue(0)


class TestFlowShard:
    def test_range_and_determinism(self, rng):
        packets = _random_packets(rng, 50)
        for packet in packets:
            shard = flow_shard(packet, 4)
            assert 0 <= shard < 4
            assert shard == flow_shard(packet, 4)

    def test_single_shard_shortcut(self):
        assert flow_shard(_packet(0.0), 1) == 0

    def test_same_flow_bytes_same_shard(self, rng):
        base = bytes(rng.integers(0, 256, size=64, dtype=np.uint8))
        a = Packet(data=base)
        # same flow region (bytes 26..38), different payload
        mutated = bytearray(base)
        mutated[50] ^= 0xFF
        b = Packet(data=bytes(mutated))
        for n in (2, 3, 8):
            assert flow_shard(a, n) == flow_shard(b, n)

    def test_flow_mode_direction_normalised(self, inet_dataset):
        from repro.net.flow import key_for_packet

        keyed = [
            p for p in inet_dataset.test_packets[:200]
            if key_for_packet(p) is not None
        ]
        assert keyed, "expected parseable inet packets"
        shards = {}
        for packet in keyed:
            key = key_for_packet(packet)
            shard = flow_shard(packet, 4, mode="flow")
            assert shards.setdefault(key, shard) == shard

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError):
            flow_shard(_packet(0.0), 2, mode="nope")


class TestSources:
    def test_retime_is_deterministic_and_rate_accurate(self, rng):
        packets = [_packet(0.0) for __ in range(2000)]
        first = list(retime(packets, rate=10_000.0, seed=5))
        second = list(retime(packets, rate=10_000.0, seed=5))
        assert [p.timestamp for p in first] == [p.timestamp for p in second]
        span = first[-1].timestamp - first[0].timestamp
        measured = len(first) / span
        assert 0.8 * 10_000 <= measured <= 1.25 * 10_000
        times = [p.timestamp for p in first]
        assert times == sorted(times)

    def test_retime_burstiness_clumps_arrivals(self):
        packets = [_packet(0.0) for __ in range(5000)]
        smooth = [p.timestamp for p in retime(packets, rate=1000.0, seed=1)]
        bursty = [
            p.timestamp
            for p in retime(packets, rate=1000.0, burstiness=16.0, seed=1)
        ]
        # bursty streams have many zero gaps (packets within a burst)
        zero_gaps = sum(1 for a, b in zip(bursty, bursty[1:]) if b == a)
        assert zero_gaps > len(bursty) / 2
        assert sum(1 for a, b in zip(smooth, smooth[1:]) if b == a) == 0

    def test_retime_validation(self):
        with pytest.raises(ValueError):
            list(retime([], rate=0.0))
        with pytest.raises(ValueError):
            list(retime([], rate=1.0, burstiness=0.5))

    def test_retime_matches_dataclasses_replace(self, rng):
        """Each re-timed copy equals ``dataclasses.replace(packet,
        timestamp=...)`` over the same arrival draws, sharing the input's
        data, label and meta objects."""
        packets = [
            Packet(
                data=p.data,
                timestamp=p.timestamp,
                label=Label(category=("syn_flood", "benign")[i % 2], device=f"d{i % 3}"),
                meta={"ipv4": {"ttl": i}},
            )
            for i, p in enumerate(_random_packets(rng, 2000))
        ]
        draws = np.random.default_rng(4)
        now, remaining, expected = 0.5, 0, []
        for packet in packets:
            if remaining <= 0:
                now += float(draws.exponential(4.0 / 1000.0))
                remaining = int(draws.geometric(1.0 / 4.0))
            remaining -= 1
            expected.append(dataclasses.replace(packet, timestamp=now))
        got = list(retime(packets, rate=1000.0, burstiness=4.0, seed=4, start=0.5))
        assert got == expected
        assert [p.timestamp for p in got] == [p.timestamp for p in expected]
        assert [p.meta for p in got] == [p.meta for p in expected]
        for copy, packet in zip(got, packets):
            assert type(copy) is Packet and copy is not packet
            assert copy.data is packet.data
            assert copy.label is packet.label
            assert copy.meta is packet.meta

    def test_synthetic_source_deterministic(self):
        a = list(SyntheticSource(rate=5000.0, n_packets=500, duration=5.0))
        b = list(SyntheticSource(rate=5000.0, n_packets=500, duration=5.0))
        assert [p.data for p in a] == [p.data for p in b]
        assert [p.timestamp for p in a] == [p.timestamp for p in b]
        assert len(a) == 500


class TestPcapSource:
    def test_streams_without_materialising(self, tmp_path, rng):
        from repro.net.pcap import write_pcap
        from repro.serve import PcapSource

        packets = _random_packets(rng, 64, rate=1000.0)
        path = tmp_path / "t.pcap"
        write_pcap(path, packets)
        out = list(PcapSource(path))
        assert [p.data for p in out] == [p.data for p in packets]

    def test_loop_requires_rate(self, tmp_path):
        from repro.serve import PcapSource

        with pytest.raises(ValueError):
            PcapSource(tmp_path / "t.pcap", loop=3)

    def test_loop_with_rate_repeats(self, tmp_path, rng):
        from repro.net.pcap import write_pcap
        from repro.serve import PcapSource

        packets = _random_packets(rng, 10, rate=1000.0)
        path = tmp_path / "t.pcap"
        write_pcap(path, packets)
        out = list(PcapSource(path, rate=1000.0, loop=3))
        assert len(out) == 30
        times = [p.timestamp for p in out]
        assert times == sorted(times)


class TestServeConfig:
    def test_queue_must_hold_a_batch(self):
        with pytest.raises(ValueError):
            ServeConfig(max_batch=1024, queue_capacity=512)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            ServeConfig(policy="best-effort")

    def test_bad_service_rate(self):
        with pytest.raises(ValueError):
            ServeConfig(service_rate=0.0)

    @pytest.mark.parametrize("field,value,message", [
        ("ring_slots", 1, "ring_slots must be >= 2"),
        ("n_shards", 0, "n_shards must be >= 1"),
        ("max_batch", 0, "max_batch must be >= 1"),
        ("max_latency", 0.0, "max_latency must be positive"),
        ("table_capacity", 0, "table_capacity must be >= 1"),
    ], ids=["ring_slots", "n_shards", "max_batch", "max_latency", "table_capacity"])
    def test_refuses_out_of_range_settings(self, field, value, message):
        """Refused where they are set, not clamped or left to a component."""
        with pytest.raises(ValueError, match=message):
            ServeConfig(**{field: value})


class TestArrivalOrder:
    def test_merges_parts_and_raises_on_a_lost_packet(self):
        batch = VerdictBatch(
            np.array([1, 0], dtype=np.uint8),
            np.array([0, -1], dtype=np.int16),
            np.array([7, -1], dtype=np.int64),
            ["acl"],
        )
        shed = Verdict("drop")
        listed = [Verdict("allow", table="acl", entry_id=2)]
        parts = [([4, 0], batch), ([1, 3], shed), ([2], listed)]
        assert arrival_order(5, parts) == [
            Verdict("allow"),
            shed,
            listed[0],
            shed,
            Verdict("drop", table="acl", entry_id=7),
        ]
        with pytest.raises(RuntimeError, match="lost without a verdict"):
            arrival_order(6, parts)


class TestStreamingGatewayDifferential:
    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_verdicts_match_offline_replay(self, rng, n_shards):
        rules = synthetic_firewall_ruleset(n_rules=16, seed=3)
        packets = _random_packets(rng, 3000)
        offline, __ = replay_gateway(rules, packets, batch_size=256)
        gateway = StreamingGateway(
            rules,
            ServeConfig(n_shards=n_shards, max_batch=256, max_latency=0.002),
        )
        result = gateway.run(packets)
        assert result.offered == len(packets)
        assert result.shed == 0
        assert [v.action for v in result.verdicts] == [
            v.action for v in offline
        ]
        # some of both outcomes, or the test proves nothing
        assert result.stats.dropped > 0 and result.stats.allowed > 0

    def test_stats_aggregate_matches(self, rng):
        rules = synthetic_firewall_ruleset(n_rules=16, seed=3)
        packets = _random_packets(rng, 2000)
        gateway = StreamingGateway(
            rules, ServeConfig(n_shards=3, max_batch=128, max_latency=0.002)
        )
        result = gateway.run(packets)
        assert result.stats.received == result.processed == len(packets)
        per_shard_total = sum(row["processed"] for row in result.per_shard)
        assert per_shard_total == result.processed
        aggregated = SwitchStats.aggregate(
            s.switch.stats for s in gateway.shards
        )
        assert aggregated.received == result.stats.received
        assert aggregated.dropped == result.stats.dropped

    def test_rerun_resets_accounting(self, rng):
        rules = synthetic_firewall_ruleset(n_rules=8, seed=3)
        packets = _random_packets(rng, 500)
        gateway = StreamingGateway(rules, ServeConfig(max_batch=64))
        first = gateway.run(packets)
        second = gateway.run(packets)
        assert first.offered == second.offered == 500
        assert first.processed == second.processed
        assert second.stats.received == 500  # not cumulative


class TestBackpressure:
    def _overloaded(self, rng, policy):
        rules = synthetic_firewall_ruleset(n_rules=8, seed=3)
        packets = _random_packets(rng, 6000, rate=50_000.0)
        gateway = StreamingGateway(
            rules,
            ServeConfig(
                max_batch=256,
                max_latency=0.002,
                queue_capacity=512,
                service_rate=10_000.0,   # 5x slower than offered
                policy=policy,
            ),
        )
        return gateway.run(packets), packets

    def test_overload_sheds_with_exact_accounting(self, rng):
        result, packets = self._overloaded(rng, FAIL_CLOSED)
        assert result.shed > 0
        assert result.offered == result.processed + result.shed == len(packets)
        # every packet has a verdict — shed ones from the policy
        assert len(result.verdicts) == len(packets)
        assert all(v is not None for v in result.verdicts)
        # processed packets went through the switch; shed did not
        assert result.stats.received == result.processed

    def test_fail_closed_drops_shed_traffic(self, rng):
        result, __ = self._overloaded(rng, FAIL_CLOSED)
        shed_verdicts = [v for v in result.verdicts if v.table is None]
        assert shed_verdicts and all(v.action == "drop" for v in shed_verdicts)

    def test_fail_open_allows_shed_traffic(self, rng):
        result, __ = self._overloaded(rng, FAIL_OPEN)
        shed_verdicts = [v for v in result.verdicts if v.table is None]
        assert shed_verdicts and all(v.action == "allow" for v in shed_verdicts)

    def test_no_shedding_when_unconstrained(self, rng):
        rules = synthetic_firewall_ruleset(n_rules=8, seed=3)
        packets = _random_packets(rng, 3000, rate=1_000_000.0)
        gateway = StreamingGateway(
            rules, ServeConfig(max_batch=256, queue_capacity=256)
        )
        result = gateway.run(packets)
        assert result.shed == 0 and result.processed == len(packets)

    def test_queue_builds_under_constrained_service(self, rng):
        result, __ = self._overloaded(rng, FAIL_CLOSED)
        assert any(
            row["queue_high_watermark"] > 0 for row in result.per_shard
        )

    def test_latency_grows_with_queueing(self, rng):
        rules = synthetic_firewall_ruleset(n_rules=8, seed=3)
        packets = _random_packets(rng, 4000, rate=50_000.0)
        fast = StreamingGateway(
            rules, ServeConfig(max_batch=256, max_latency=0.002)
        ).run(packets)
        slow = StreamingGateway(
            rules,
            ServeConfig(
                max_batch=256,
                max_latency=0.002,
                queue_capacity=4096,
                service_rate=25_000.0,
            ),
        ).run(packets)
        assert slow.latency_p99 > fast.latency_p99


class TestGracefulDrain:
    def test_partial_batches_flush_on_drain(self, rng):
        rules = synthetic_firewall_ruleset(n_rules=8, seed=3)
        # 10 packets, batch size 256: only a drain can flush them
        packets = _random_packets(rng, 10, rate=1_000_000.0)
        gateway = StreamingGateway(
            rules, ServeConfig(n_shards=2, max_batch=256, max_latency=10.0)
        )
        result = gateway.run(packets)
        assert result.processed == 10
        assert result.flush_reasons.get("drain", 0) >= 1
        assert all(v is not None for v in result.verdicts)

    def test_constrained_queue_drains_to_empty(self, rng):
        rules = synthetic_firewall_ruleset(n_rules=8, seed=3)
        packets = _random_packets(rng, 2000, rate=200_000.0)
        gateway = StreamingGateway(
            rules,
            ServeConfig(
                max_batch=128, queue_capacity=8192, service_rate=5_000.0
            ),
        )
        result = gateway.run(packets)
        assert result.processed + result.shed == 2000
        for shard in gateway.shards:
            assert shard.queue.depth == 0
            assert len(shard.batcher) == 0


def _two_versions():
    """Two rule sets over the same offsets with opposite decisions."""
    offsets = (3, 7)
    v0 = RuleSet(offsets, default_action="allow")
    v0.add(Rule((MatchField(3, 0, 127),), ACTION_DROP, priority=1))
    v1 = RuleSet(offsets, default_action="allow")
    v1.add(Rule((MatchField(3, 128, 255),), ACTION_DROP, priority=1))
    return v0, v1


class TestAtomicRuleSwap:
    """Satellite: drift → retrain → atomic rule swap mid-stream.

    No packet may observe a half-installed rule set: every serviced
    batch must be consistent with exactly one rule-set version — the one
    installed when the batch entered the pipeline.
    """

    def _run_with_swap(self, rng, n_shards, v0, v1, swap_after=5):
        observed = []

        class SwapHook:
            def __init__(self):
                self.version = 0
                self.batches_seen = 0

            def __call__(self, packets, verdicts):
                observed.append((packets, verdicts, self.version))
                self.batches_seen += 1
                if self.batches_seen == swap_after and self.version == 0:
                    self.version = 1
                    return v1
                return None

        packets = _random_packets(rng, 4000)
        gateway = StreamingGateway(
            v0,
            ServeConfig(n_shards=n_shards, max_batch=128, max_latency=0.002),
            retrain_hook=SwapHook(),
        )
        result = gateway.run(packets)
        return result, observed

    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_no_batch_observes_half_installed_rules(self, rng, n_shards):
        v0, v1 = _two_versions()
        versions = [v0, v1]
        result, observed = self._run_with_swap(rng, n_shards, v0, v1)
        assert result.rule_swaps == 1
        swapped = [version for __, __, version in observed]
        assert 0 in swapped and 1 in swapped
        for packets, verdicts, version in observed:
            active = versions[version]
            for packet, verdict in zip(packets, verdicts):
                assert verdict.action == active.action_for_packet(packet), (
                    "packet matched against a half-installed rule set"
                )

    def test_swap_with_changed_offsets_rebuilds_parsers(self, rng):
        v0, __ = _two_versions()
        v1 = RuleSet((5, 9, 11), default_action="allow")
        v1.add(Rule((MatchField(9, 0, 200),), ACTION_DROP, priority=1))
        versions = [v0, v1]
        result, observed = self._run_with_swap(rng, 2, v0, v1)
        assert result.rule_swaps == 1
        for packets, verdicts, version in observed:
            active = versions[version]
            for packet, verdict in zip(packets, verdicts):
                assert verdict.action == active.action_for_packet(packet)
        # stats survived the parser swap
        assert result.stats.received == result.processed

    def test_swap_counted_in_result(self, rng):
        v0, v1 = _two_versions()
        result, __ = self._run_with_swap(rng, 1, v0, v1)
        assert result.rule_swaps == 1


class TestDriftRetrainHook:
    def test_drift_mid_stream_swaps_rules(self, inet_dataset, zigbee_dataset):
        from repro.core import DetectorConfig
        from repro.core.online import OnlineGateway
        from repro.serve import DriftRetrainHook

        online = OnlineGateway(
            DetectorConfig(n_fields=4, selector_epochs=6, epochs=10, seed=2),
            min_batch=64,
            drift_threshold=0.15,
        )
        online.bootstrap(inet_dataset.x_train, inet_dataset.y_train_binary)
        hook = DriftRetrainHook(online)
        rules = online.detector.generate_rules()

        # stream inet traffic first, then shift the distribution
        stream = (
            inet_dataset.test_packets[:400] + zigbee_dataset.test_packets[:400]
        )
        stream = [
            Packet(data=p.data, timestamp=i * 1e-5, label=p.label)
            for i, p in enumerate(stream)
        ]
        gateway = StreamingGateway(
            rules,
            ServeConfig(n_shards=2, max_batch=128, max_latency=0.01),
            retrain_hook=hook,
        )
        result = gateway.run(stream)
        assert result.processed == len(stream)
        assert hook.events, "distribution shift should trigger a retrain"
        assert all(e.reason == "drift" for e in hook.events)
        assert result.rule_swaps == len(hook.events)
        assert gateway.shards.rules is not rules

    def test_requires_bootstrapped_gateway(self):
        from repro.core.online import OnlineGateway
        from repro.serve import DriftRetrainHook

        with pytest.raises(ValueError):
            DriftRetrainHook(OnlineGateway())


class TestObservability:
    def test_serve_metrics_recorded(self, rng):
        from repro import obs

        rules = synthetic_firewall_ruleset(n_rules=8, seed=3)
        packets = _random_packets(rng, 1500, rate=50_000.0)
        registry = obs.Registry(enabled=True)
        with obs.use_registry(registry):
            gateway = StreamingGateway(
                rules,
                ServeConfig(
                    n_shards=2,
                    max_batch=128,
                    max_latency=0.002,
                    queue_capacity=256,
                    service_rate=10_000.0,
                ),
            )
            result = gateway.run(packets)
        names = {m["name"] for m in registry.snapshot()["metrics"]}
        assert "serve_offered_packets_total" in names
        assert "serve_batch_size" in names
        assert "serve_batcher_wait_seconds" in names
        assert "serve_e2e_latency_seconds" in names
        assert "serve_queue_depth" in names
        assert "serve_shard_packets_total" in names
        assert "serve_batches_total" in names
        assert "span_seconds" in names
        if result.shed:
            assert "serve_shed_packets_total" in names
        offered = [
            m for m in registry.snapshot()["metrics"]
            if m["name"] == "serve_offered_packets_total"
        ]
        assert offered[0]["value"] == len(packets)
        shard_totals = [
            m["value"]
            for m in registry.snapshot()["metrics"]
            if m["name"] == "serve_shard_packets_total"
        ]
        assert sum(shard_totals) == result.processed

    def test_disabled_registry_is_default(self, rng):
        rules = synthetic_firewall_ruleset(n_rules=4, seed=3)
        gateway = StreamingGateway(rules)
        assert gateway._obs_on is False


@pytest.mark.perf
class TestSoakPerformance:
    """The E17 acceptance bar, asserted."""

    MAX_LATENCY = 0.005

    def _packets(self, rng, n=30_000):
        return _random_packets(rng, n, rate=500_000.0)

    def test_soak_sustains_offline_throughput(self, rng):
        rules = synthetic_firewall_ruleset()
        packets = self._packets(rng)
        # offline baseline at batch 1024 (warm, then measured)
        replay_gateway(rules, packets[:2048], batch_size=1024)
        start = time.perf_counter()
        replay_gateway(rules, packets, batch_size=1024)
        offline_seconds = time.perf_counter() - start
        offline_pps = len(packets) / offline_seconds

        gateway = StreamingGateway(
            rules,
            ServeConfig(
                max_batch=1024,
                max_latency=self.MAX_LATENCY,
                record_verdicts=False,
            ),
        )
        gateway.run(packets[:2048])  # warm
        result = gateway.run(packets)
        assert result.processed == len(packets)
        assert result.pkts_per_sec >= 0.8 * offline_pps, (
            f"soak {result.pkts_per_sec:,.0f} pkts/s < 80% of offline "
            f"{offline_pps:,.0f} pkts/s"
        )
        assert result.batcher_wait_p99 <= self.MAX_LATENCY + 1e-9

    def test_overload_sheds_instead_of_collapsing(self, rng):
        rules = synthetic_firewall_ruleset()
        packets = _random_packets(rng, 20_000, rate=80_000.0)
        gateway = StreamingGateway(
            rules,
            ServeConfig(
                max_batch=1024,
                max_latency=self.MAX_LATENCY,
                queue_capacity=2048,
                service_rate=20_000.0,
                record_verdicts=False,
            ),
        )
        start = time.perf_counter()
        result = gateway.run(packets)
        wall = time.perf_counter() - start
        # sheds, with every packet accounted for, and terminates promptly
        assert result.shed > 0
        assert result.offered == result.processed + result.shed == len(packets)
        assert wall < 30.0
        # the queue bound also bounds stream-time latency
        max_queue_delay = 2048 / 20_000.0
        assert result.latency_p99 <= max_queue_delay + self.MAX_LATENCY + 0.1
