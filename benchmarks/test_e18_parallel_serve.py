"""E18 (extension) — worker-count saturation sweep for parallel serving.

The process-parallel backend moves per-shard classification out of the
gateway event loop into worker processes fed over shared-memory frame
rings, so aggregate throughput can scale past one core.  We soak the
same retimed stream through the inline backend and through 1/2/4/8
process workers and report aggregate pkt/s, the speedup over inline,
and the p99 batch service time — the saturation curve should climb
until workers exceed usable cores, then flatten.

On a single-core host the honest curve is flat-to-negative (every IPC
hop is pure overhead with no parallel hardware to pay for it); the
assertions therefore gate correctness (exact accounting, identical
verdict totals across backends) unconditionally and reserve the
speedup gate for hosts with ≥ 4 usable cores.  Timed section: the soak
at the widest worker count.
"""

import os

from repro.eval.harness import synthetic_firewall_ruleset
from repro.eval.report import format_table
from repro.serve import ServeConfig, StreamingGateway, retime

WORKER_COUNTS = [1, 2, 4, 8]
N_PACKETS = 30_000
MAX_LATENCY = 0.005
TABLE_CAPACITY = 32_768


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _stream_packets(dataset):
    packets = sorted(dataset.test_packets, key=lambda p: p.timestamp)
    return (packets * (N_PACKETS // len(packets) + 1))[:N_PACKETS]


def test_e18_worker_saturation_sweep(benchmark, inet):
    packets = _stream_packets(inet)
    # Classification-bound: a wide rule set (~20k ternary entries) so
    # workers have real per-batch work and the ring hop is a small
    # fraction.
    rules = synthetic_firewall_ruleset(n_rules=1024, fields_per_rule=2)
    stream = list(retime(packets, rate=1_000_000.0, seed=1))

    def soak(executor: str, n_shards: int):
        gateway = StreamingGateway(
            rules,
            ServeConfig(
                n_shards=n_shards,
                max_batch=512,
                max_latency=MAX_LATENCY,
                queue_capacity=8192,
                record_verdicts=False,
                table_capacity=TABLE_CAPACITY,
                executor=executor,
            ),
        )
        best = None
        for _ in range(2):  # best-of-2: first run pays warmup
            result = gateway.run(stream)
            if best is None or result.wall_seconds < best.wall_seconds:
                best = result
        return best

    inline = soak("inline", 1)
    rows = [{
        "backend": "inline",
        "workers": 1,
        "pkts_per_sec": round(inline.pkts_per_sec),
        "speedup": 1.0,
        "p99_batch_ms": round(1e3 * inline.batch_seconds_p99, 3),
    }]
    outcomes = {}
    for workers in WORKER_COUNTS:
        result = soak("process", workers)
        outcomes[workers] = result
        rows.append({
            "backend": "process",
            "workers": workers,
            "pkts_per_sec": round(result.pkts_per_sec),
            "speedup": round(result.pkts_per_sec / inline.pkts_per_sec, 2),
            "p99_batch_ms": round(1e3 * result.batch_seconds_p99, 3),
        })

    print()
    print(format_table(
        rows,
        title=f"E18: worker saturation sweep ({_usable_cores()} usable cores)",
    ))

    # Correctness gates hold on any host: exact accounting, no worker
    # deaths, and backend-identical verdict totals.
    for workers, result in outcomes.items():
        assert result.offered == result.processed + result.shed
        assert result.worker_failures == 0
        assert result.stats.received == inline.stats.received
        assert result.stats.dropped == inline.stats.dropped
        assert result.stats.allowed == inline.stats.allowed

    # The speedup gate needs real parallel hardware.
    if _usable_cores() >= 4:
        assert outcomes[4].pkts_per_sec >= 2.5 * inline.pkts_per_sec

    widest = WORKER_COUNTS[-1]
    gateway = StreamingGateway(
        rules,
        ServeConfig(
            n_shards=widest,
            max_batch=512,
            max_latency=MAX_LATENCY,
            queue_capacity=8192,
            record_verdicts=False,
            table_capacity=TABLE_CAPACITY,
            executor="process",
        ),
    )

    def run():
        return gateway.run(stream)

    benchmark(run)
