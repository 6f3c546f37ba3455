"""Golden event semantics of the streaming gateway.

``tests/golden/gateway_events.json`` holds the exact :class:`SoakResult`
fields and ``serve_*`` histogram contents of a fixed set of arrival
patterns, recorded from the per-packet gateway loop that preceded the
columnar serve path.  Every scenario must reproduce them bit for bit on
both executors: flush triggers, batch counts, latency and batcher-wait
quantiles, per-shard counts, shed accounting, switch stats, the
histogram bucket counts and their float sums (accumulated in arrival
order), and a digest of the per-packet verdicts.

Regenerate only on purpose (a deliberate semantic change)::

    PYTHONPATH=src python tests/test_gateway_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.core.rules import ACTION_QUARANTINE, MatchField, Rule
from repro.eval.harness import synthetic_firewall_ruleset
from repro.net.packet import Packet
from repro.serve import FAIL_OPEN, IterableSource, ServeConfig, StreamingGateway

GOLDEN = Path(__file__).parent / "golden" / "gateway_events.json"
HISTOGRAMS = (
    "serve_batch_size",
    "serve_batcher_wait_seconds",
    "serve_e2e_latency_seconds",
)


def _packets(seed: int, n: int, rate: float, *, reorder: float = 0.0):
    """Random-byte packets with Poisson arrivals.

    ``reorder`` jitters that fraction of the stamps back by up to 5 ms,
    as in a capture merged from several interfaces.
    """
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(1.0 / rate, size=n))
    if reorder:
        moved = rng.random(n) < reorder
        times[moved] -= rng.uniform(0.0, 0.005, size=int(moved.sum()))
    sizes = rng.integers(40, 128, size=n)
    return [
        Packet(
            data=bytes(rng.integers(0, 256, size=int(size), dtype=np.uint8)),
            timestamp=float(t),
        )
        for t, size in zip(times, sizes)
    ]


def _rules(seed: int):
    """Drop rules plus one quarantine rule, so all three verdicts occur."""
    rules = synthetic_firewall_ruleset(n_rules=16, seed=seed)
    rules.add(
        Rule((MatchField(19, 0, 40),), ACTION_QUARANTINE, priority=1000)
    )
    return rules


class _SwapHook:
    """Swap to a second rule set once ``at`` packets were serviced.

    With ``log`` given, every batch's packets are appended to it.
    """

    def __init__(self, at: int, log=None):
        self.at = at
        self.seen = 0
        self.pending = _rules(seed=9)
        self.log = log

    def __call__(self, packets, verdicts):
        if self.log is not None:
            self.log.append(list(packets))
        self.seen += len(packets)
        if self.pending is not None and self.seen >= self.at:
            out, self.pending = self.pending, None
            return out
        return None


#: name -> (packets kwargs, ServeConfig kwargs, swap-hook threshold)
SCENARIOS = {
    "saturating": (
        dict(seed=1, n=3000, rate=1_000_000.0),
        dict(max_batch=128, max_latency=0.002),
        None,
    ),
    "sparse_deadlines": (
        dict(seed=2, n=500, rate=400.0),
        dict(max_batch=128, max_latency=0.002),
        None,
    ),
    "reordered": (
        dict(seed=3, n=3000, rate=50_000.0, reorder=0.1),
        dict(max_batch=128, max_latency=0.001, service_rate=60_000.0),
        None,
    ),
    "shedding_closed": (
        dict(seed=4, n=4000, rate=200_000.0),
        dict(max_batch=128, max_latency=0.002, queue_capacity=256,
             service_rate=8_000.0),
        None,
    ),
    "shedding_open": (
        dict(seed=5, n=4000, rate=200_000.0),
        dict(max_batch=64, max_latency=0.001, queue_capacity=128,
             service_rate=12_000.0, policy=FAIL_OPEN),
        None,
    ),
    "swap": (
        dict(seed=6, n=4000, rate=100_000.0),
        dict(max_batch=128, max_latency=0.002, service_rate=30_000.0),
        1500,
    ),
}
CASES = [(name, shards) for name in SCENARIOS for shards in (1, 3)]


def _digest(verdicts) -> str:
    sha = hashlib.sha256()
    for v in verdicts:
        sha.update(f"{v.action}|{v.table}|{v.entry_id}|{v.tenant};".encode())
    return sha.hexdigest()


def observe(
    name: str,
    n_shards: int,
    executor: str,
    *,
    source=None,
    recorder=None,
    hook_log=None,
) -> dict:
    """Run one scenario; returns every golden field, JSON-ready.

    ``source`` replaces the scenario's in-memory packets (the same
    packets, served another way); ``recorder`` is attached to the
    gateway, and ``hook_log`` collects what the swap hook receives.
    """
    packet_kwargs, config_kwargs, swap_at = SCENARIOS[name]
    config = ServeConfig(n_shards=n_shards, executor=executor, **config_kwargs)
    hook = _SwapHook(swap_at, hook_log) if swap_at is not None else None
    if source is None:
        source = IterableSource(_packets(**packet_kwargs))
    registry = obs.Registry(enabled=True)
    with obs.use_registry(registry):
        gateway = StreamingGateway(
            _rules(seed=0), config, retrain_hook=hook, recorder=recorder
        )
        result = gateway.run(source)
    histograms = {}
    for hist_name in HISTOGRAMS:
        histogram = registry.histogram(hist_name)
        histograms[hist_name] = {
            "counts": list(histogram.counts),
            "sum": histogram.sum,
            "count": histogram.count,
        }
    return {
        "offered": result.offered,
        "processed": result.processed,
        "shed": result.shed,
        "batches": result.batches,
        "flush_reasons": dict(sorted(result.flush_reasons.items())),
        "latency_p50": result.latency_p50,
        "latency_p99": result.latency_p99,
        "latency_mean": result.latency_mean,
        "batcher_wait_p99": result.batcher_wait_p99,
        "rule_swaps": result.rule_swaps,
        "per_shard": result.per_shard,
        "stats": {
            "received": result.stats.received,
            "dropped": result.stats.dropped,
            "allowed": result.stats.allowed,
            "quarantined": result.stats.quarantined,
            "bytes_received": result.stats.bytes_received,
            "bytes_dropped": result.stats.bytes_dropped,
            "bytes_quarantined": result.stats.bytes_quarantined,
        },
        "histograms": histograms,
        "verdicts_sha256": _digest(result.verdicts),
    }


def _key(name: str, n_shards: int) -> str:
    return f"{name}/{n_shards}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(*case) for case in CASES)


def test_scenarios_exercise_every_trigger(golden):
    reasons = set()
    for entry in golden.values():
        reasons.update(entry["flush_reasons"])
    assert reasons == {"full", "deadline", "drain"}
    assert any(entry["shed"] for entry in golden.values())
    assert any(entry["rule_swaps"] for entry in golden.values())
    assert all(
        entry["stats"]["quarantined"] for entry in golden.values()
    )


@pytest.mark.parametrize("executor", ["inline", "process"])
@pytest.mark.parametrize("name,n_shards", CASES)
def test_gateway_reproduces_golden(golden, name, n_shards, executor):
    got = json.loads(json.dumps(observe(name, n_shards, executor)))
    assert got == golden[_key(name, n_shards)]


if __name__ == "__main__":
    if "--write" not in sys.argv[1:]:
        sys.exit("usage: test_gateway_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {_key(*case): observe(*case, "inline") for case in CASES}
    rows = [f" {json.dumps(k)}: {json.dumps(data[k], sort_keys=True)}" for k in sorted(data)]
    GOLDEN.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(data)} scenarios to {GOLDEN}")
