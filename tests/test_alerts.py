"""Tests for the SLO alert engine (repro.obs.alerts).

Covers the quantile estimator, rule aggregation semantics (label
superset matching, counter summing, histogram bucket merging, ratio
rules with the zero-denominator guard), edge-triggered firing with
re-arm on recovery, the ``alerts_fired_total`` wiring and the
dump-on-fire path, and the end-to-end acceptance shape: an over-offered
gateway soak fires ``shed_rate_high`` and the flight dump contains a
record for every shed packet.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.obs.alerts import (
    AlertEngine,
    AlertRule,
    default_serve_alerts,
    histogram_quantile,
)
from repro.obs.events import KIND_SHED, read_events
from repro.obs.flight import FlightRecorder


class TestHistogramQuantile:
    def test_median_interpolates_within_bucket(self):
        # 10 observations uniform in the (0, 10] bucket
        assert histogram_quantile([10.0], [10, 0], 0.5) == pytest.approx(5.0)

    def test_spans_buckets(self):
        edges = [1.0, 2.0, 4.0]
        counts = [5, 5, 0, 0]  # + empty overflow
        assert histogram_quantile(edges, counts, 0.5) == pytest.approx(1.0)
        assert histogram_quantile(edges, counts, 0.9) == pytest.approx(1.8)

    def test_overflow_clamps_to_last_edge(self):
        assert histogram_quantile([1.0, 2.0], [0, 0, 7], 0.99) == 2.0

    def test_empty_is_zero(self):
        assert histogram_quantile([1.0], [0, 0], 0.9) == 0.0

    def test_q_validated(self):
        with pytest.raises(ValueError):
            histogram_quantile([1.0], [1, 0], 1.5)


def _registry():
    return obs.Registry(enabled=True)


class TestAlertRule:
    def test_validation(self):
        with pytest.raises(ValueError):
            AlertRule("x", metric="m", threshold=1, op=">=")
        with pytest.raises(ValueError):
            AlertRule("x", metric="m", threshold=1, stat="p42")

    def test_sums_across_label_series(self):
        registry = _registry()
        registry.counter("shed_total", {"shard": "0"}).inc(3)
        registry.counter("shed_total", {"shard": "1"}).inc(4)
        rule = AlertRule("x", metric="shed_total", threshold=5)
        assert rule.evaluate(registry.snapshot()) == 7.0

    def test_label_filter_is_superset_match(self):
        registry = _registry()
        registry.counter("shed_total", {"shard": "0", "policy": "fail-open"}).inc(3)
        registry.counter("shed_total", {"shard": "1", "policy": "fail-closed"}).inc(4)
        rule = AlertRule(
            "x",
            metric="shed_total",
            threshold=0,
            labels=(("policy", "fail-closed"),),
        )
        assert rule.evaluate(registry.snapshot()) == 4.0

    def test_missing_metric_is_none(self):
        rule = AlertRule("x", metric="nope", threshold=1)
        assert rule.evaluate(_registry().snapshot()) is None

    def test_ratio_rule(self):
        registry = _registry()
        registry.counter("shed_total").inc(5)
        registry.counter("offered_total").inc(100)
        rule = AlertRule(
            "x", metric="shed_total", denominator="offered_total", threshold=0.01
        )
        assert rule.evaluate(registry.snapshot()) == pytest.approx(0.05)

    def test_zero_denominator_never_fires(self):
        registry = _registry()
        registry.counter("shed_total").inc(5)
        registry.counter("offered_total")  # registered, still zero
        rule = AlertRule(
            "x", metric="shed_total", denominator="offered_total", threshold=0.01
        )
        assert rule.evaluate(registry.snapshot()) is None

    def test_histogram_stats(self):
        registry = _registry()
        hist = registry.histogram("wait_seconds", buckets=[0.1, 1.0, 10.0])
        for value in (0.05, 0.05, 0.5, 5.0):
            hist.observe(value)
        snapshot = registry.snapshot()
        p99 = AlertRule("x", metric="wait_seconds", stat="p99", threshold=0)
        assert 1.0 < p99.evaluate(snapshot) <= 10.0
        mean = AlertRule("y", metric="wait_seconds", stat="mean", threshold=0)
        assert mean.evaluate(snapshot) == pytest.approx(5.6 / 4)

    def test_fired_direction(self):
        above = AlertRule("a", metric="m", threshold=1.0)
        below = AlertRule("b", metric="m", threshold=1.0, op="<")
        assert above.fired(2.0) and not above.fired(0.5)
        assert below.fired(0.5) and not below.fired(2.0)


class TestAlertEngine:
    def test_duplicate_names_rejected(self):
        rule = AlertRule("x", metric="m", threshold=1)
        with pytest.raises(ValueError):
            AlertEngine([rule, rule])

    def test_edge_trigger_and_rearm(self):
        registry = _registry()
        gauge = registry.gauge("drift")
        rule = AlertRule("drift_high", metric="drift", threshold=0.5)
        engine = AlertEngine([rule], registry=registry)
        gauge.set(0.9)
        assert len(engine.evaluate(now=1.0)) == 1
        assert engine.evaluate(now=2.0) == []  # same excursion: silent
        assert engine.active == {"drift_high"}
        gauge.set(0.1)
        assert engine.evaluate(now=3.0) == []  # recovered: re-armed
        assert engine.active == set()
        gauge.set(0.9)
        fired = engine.evaluate(now=4.0)  # second excursion fires again
        assert [event.name for event in fired] == ["drift_high"]
        assert len(engine.events) == 2

    def test_fired_counter_and_recorder(self):
        registry = _registry()
        registry.gauge("drift").set(0.9)
        recorder = FlightRecorder(8)
        engine = AlertEngine(
            [AlertRule("drift_high", metric="drift", threshold=0.5)],
            registry=registry,
            recorder=recorder,
        )
        engine.evaluate(now=1.0)
        snapshot = registry.snapshot()
        fired = [
            m for m in snapshot["metrics"] if m["name"] == "alerts_fired_total"
        ]
        assert fired and fired[0]["labels"] == {"alert": "drift_high"}
        assert fired[0]["value"] == 1
        (event,) = recorder.records()
        assert event.name == "drift_high" and event.value == pytest.approx(0.9)
        assert ">" in event.message and "drift" in event.message

    def test_dump_on_fire(self, tmp_path):
        registry = _registry()
        registry.gauge("drift").set(0.9)
        path = tmp_path / "flight.jsonl"
        engine = AlertEngine(
            [AlertRule("drift_high", metric="drift", threshold=0.5)],
            registry=registry,
            recorder=FlightRecorder(8),
            dump_path=path,
        )
        engine.evaluate(now=1.0)
        assert engine.dumps == 1
        (event,) = read_events(path)
        assert event.name == "drift_high"

    def test_no_dump_when_nothing_fires(self, tmp_path):
        registry = _registry()
        registry.gauge("drift").set(0.1)
        path = tmp_path / "flight.jsonl"
        engine = AlertEngine(
            [AlertRule("drift_high", metric="drift", threshold=0.5)],
            registry=registry,
            recorder=FlightRecorder(8),
            dump_path=path,
        )
        engine.evaluate(now=1.0)
        assert engine.dumps == 0 and not path.exists()


class TestDefaultServeAlerts:
    def test_rule_names(self):
        names = [rule.name for rule in default_serve_alerts()]
        assert names == [
            "shed_rate_high",
            "drift_score_high",
            "table_occupancy_high",
        ]

    def test_batcher_rule_added_with_bound(self):
        rules = default_serve_alerts(batcher_wait_p99=0.002)
        assert rules[-1].name == "batcher_wait_p99_high"
        assert rules[-1].stat == "p99"
        assert rules[-1].threshold == 0.002


class TestGatewaySoakAcceptance:
    def test_overload_fires_shed_alert_and_dumps_every_shed(self, tmp_path):
        """The issue's acceptance shape: over-offer, fire, dump, verify."""
        from repro.eval.harness import synthetic_firewall_ruleset
        from repro.net.packet import Packet
        from repro.serve import ServeConfig, StreamingGateway

        rng = np.random.default_rng(3)
        gaps = rng.exponential(1.0 / 50_000.0, size=6000)
        times = np.cumsum(gaps)
        packets = [
            Packet(
                data=bytes(rng.integers(0, 256, size=64, dtype=np.uint8)),
                timestamp=float(t),
            )
            for t in times
        ]
        rules = synthetic_firewall_ruleset(n_rules=8, seed=3)
        dump_path = tmp_path / "flight.jsonl"
        recorder = FlightRecorder(32768, sample_rate=0.01, seed=0)
        registry = obs.Registry(enabled=True)
        with obs.use_registry(registry):
            engine = AlertEngine(
                default_serve_alerts(shed_rate=0.01),
                recorder=recorder,
                dump_path=dump_path,
            )
            gateway = StreamingGateway(
                rules,
                ServeConfig(
                    max_batch=256,
                    max_latency=0.002,
                    queue_capacity=512,
                    service_rate=10_000.0,  # 5x slower than offered
                ),
                recorder=recorder,
                alert_engine=engine,
                alert_interval=0.01,
            )
            result = gateway.run(packets)

        assert result.shed > 0
        fired_names = {event.name for event in result.alerts}
        assert "shed_rate_high" in fired_names
        assert engine.dumps >= 1
        assert "alerts" in result.summary()

        dumped = read_events(dump_path)
        shed_seqs = {e.seq for e in dumped if e.kind == KIND_SHED}
        # every shed packet's record is in the dump — none were evicted
        assert len(shed_seqs) == result.shed
        # shed seqs are arrival indices, so they identify real packets
        assert all(0 <= seq < len(packets) for seq in shed_seqs)
        # and the sheds recorded stream timestamps from those packets
        by_seq = {e.seq: e for e in dumped if e.kind == KIND_SHED}
        probe = next(iter(shed_seqs))
        assert by_seq[probe].timestamp == pytest.approx(
            packets[probe].timestamp
        )
