"""Registry counters read at snapshot time from the objects that count.

The ``switch_*`` series are read off each switch's ``SwitchStats`` and
the gateway's run counters (offered, shed, per-shard packets, ...) off
the gateway while it runs.  These tests pin what that must preserve:

* counters stay cumulative per registry across runs and across
  switches retired mid-run by a changed-offsets rule swap, on both
  executors — they equal the sum of the runs' ``SoakResult``s;
* the registry never keeps a switch alive, yet keeps its counts;
* the number of tracked records is bounded by the live objects, not
  by how many runs or swaps came before.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro import obs
from repro.dataplane.switch import SwitchStats
from repro.eval.harness import synthetic_firewall_ruleset
from repro.net.packet import Packet
from repro.serve import ServeConfig, StreamingGateway


def _packets(seed: int, n: int, rate: float = 100_000.0):
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(1.0 / rate, size=n))
    sizes = rng.integers(40, 128, size=n)
    return [
        Packet(
            data=bytes(rng.integers(0, 256, size=int(size), dtype=np.uint8)),
            timestamp=float(t),
        )
        for t, size in zip(times, sizes)
    ]


class _AlternatingSwap:
    """Every ``every`` batches, swap to the next rule set in ``rules``."""

    def __init__(self, rules, every: int, limit=None):
        self.rules = rules
        self.every = every
        self.limit = limit
        self.calls = 0
        self.swaps = 0

    def __call__(self, packets, verdicts):
        self.calls += 1
        if self.calls % self.every or self.swaps == self.limit:
            return None
        self.swaps += 1
        return self.rules[self.swaps % len(self.rules)]


def _values(registry, name):
    return {
        tuple(sorted(m["labels"].items())): m["value"]
        for m in registry.snapshot()["metrics"]
        if m["name"] == name
    }


def _rules_pair():
    # Different offsets: every swap builds fresh switches and retires
    # the old ones.
    return [
        synthetic_firewall_ruleset(),
        synthetic_firewall_ruleset(offsets=(10, 20, 30, 40), seed=4),
    ]


@pytest.mark.parametrize("executor", ["inline", "process"])
def test_counters_equal_sum_of_soak_results(executor):
    registry = obs.Registry(enabled=True)
    rules = _rules_pair()
    hook = _AlternatingSwap(rules, every=5, limit=1)
    # Built outside the scope: the gateway and its switches must follow.
    gateway = StreamingGateway(
        rules[0],
        ServeConfig(
            n_shards=2, max_batch=128, max_latency=0.002,
            queue_capacity=256, service_rate=30_000.0,
            executor=executor,
        ),
        retrain_hook=hook,
    )
    with obs.use_registry(registry):
        results = [
            gateway.run(_packets(seed, 3000, rate=rate))
            for seed, rate in ((1, 100_000.0), (2, 200_000.0))
        ]
    assert results[0].rule_swaps == 1 and results[1].rule_swaps == 0
    assert sum(r.shed for r in results) > 0  # the shed series is exercised

    stats = SwitchStats.aggregate(r.stats for r in results)
    assert _values(registry, "switch_packets_received_total") == {(): stats.received}
    assert _values(registry, "switch_bytes_received_total") == {
        (): stats.bytes_received
    }
    verdict = lambda v: (("verdict", v),)  # noqa: E731
    assert _values(registry, "switch_packets_total") == {
        verdict("allow"): stats.allowed,
        verdict("drop"): stats.dropped,
        verdict("quarantine"): stats.quarantined,
    }
    assert _values(registry, "switch_bytes_total") == {
        verdict("allow"): (
            stats.bytes_received - stats.bytes_dropped - stats.bytes_quarantined
        ),
        verdict("drop"): stats.bytes_dropped,
        verdict("quarantine"): stats.bytes_quarantined,
    }

    assert _values(registry, "serve_offered_packets_total") == {
        (): sum(r.offered for r in results)
    }
    assert _values(registry, "serve_rule_swaps_total") == {(): 1}
    policy = ServeConfig().policy
    for shard in range(2):
        assert _values(registry, "serve_shed_packets_total")[
            (("policy", policy), ("shard", str(shard)))
        ] == sum(r.per_shard[shard]["shed"] for r in results)
        assert _values(registry, "serve_shard_packets_total")[
            (("shard", str(shard)),)
        ] == sum(r.per_shard[shard]["processed"] for r in results)
    assert sum(_values(registry, "serve_batches_total").values()) == sum(
        r.batches for r in results
    )


def test_registry_never_pins_a_switch_but_keeps_its_counts():
    registry = obs.Registry(enabled=True)
    with obs.use_registry(registry):
        gateway = StreamingGateway(synthetic_firewall_ruleset())
        result = gateway.run(_packets(3, 500))
        switch = weakref.ref(gateway.shards[0].switch)
    del gateway
    gc.collect()
    assert switch() is None
    assert _values(registry, "switch_packets_received_total") == {
        (): result.stats.received
    }
    assert not registry._tracked


def test_tracked_records_bounded_by_live_objects():
    registry = obs.Registry(enabled=True)
    hook = _AlternatingSwap(_rules_pair(), every=2)
    received = 0
    with obs.use_registry(registry):
        gateway = StreamingGateway(
            synthetic_firewall_ruleset(),
            ServeConfig(n_shards=2, max_batch=64),
            retrain_hook=hook,
        )
        for run in range(50):
            received += gateway.run(_packets(run, 300)).stats.received
    assert hook.swaps >= 100  # every run retired switches mid-run
    gc.collect()
    assert _values(registry, "switch_packets_received_total") == {(): received}
    live_switches = len(gateway.shards)
    assert len(registry._tracked) <= live_switches + 1


def test_disabled_registry_tracks_nothing():
    registry = obs.Registry(enabled=False)
    with obs.use_registry(registry):
        gateway = StreamingGateway(synthetic_firewall_ruleset())
        gateway.run(_packets(4, 200))
    assert not registry._tracked
    assert registry.snapshot() == {"metrics": []}
    assert gateway.shards[0].switch.stats.received == 200  # stats stay on
