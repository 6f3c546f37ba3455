#!/usr/bin/env python
"""Project benchmark runner with a persisted perf trajectory.

Times the perf-critical paths — trace synthesis, detector training,
the batch switch data path, the compiled LUT-bitmap classifier, the
streaming-gateway soak, the multi-tenant fleet soak, and the
flight-recorder provenance overhead —
and *appends* one record to
``BENCH_perf.json`` so the numbers form a trajectory across commits
rather than a single snapshot:

    [{"commit": "abc1234", "date": "...", "mode": "full", "metrics": {...},
      "obs": {"metrics": [...]}}, ...]

Each run executes under an enabled :mod:`repro.obs` registry, so the
record also carries the full telemetry snapshot — per-phase
``span_seconds{span="bench.<name>"}`` timings plus every per-table and
per-verdict counter the instrumented code recorded (see
docs/OBSERVABILITY.md).

Usage::

    python tools/bench.py            # full scale (the acceptance configs)
    python tools/bench.py --quick    # small configs, seconds not minutes
    make bench                       # alias for the full run

The file is append-only by construction: existing records are loaded,
never rewritten.  Use ``--output`` to point somewhere else (tests do).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro import obs  # noqa: E402
from repro.core.pipeline import DetectorConfig, TwoStageDetector  # noqa: E402
from repro.dataplane import Switch, SwitchConfig, TernaryTable  # noqa: E402
from repro.datasets import TraceConfig, generate_trace, make_dataset  # noqa: E402
from repro.net.synth import fastpath  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_perf.json"

#: The synthesis acceptance config (also the detector-fit data source).
FULL_TRACE = dict(stack="inet", duration=300.0, n_devices=8, chatter=True, seed=7)
QUICK_TRACE = dict(stack="inet", duration=20.0, n_devices=2, chatter=True, seed=7)


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def bench_trace_synthesis(quick: bool) -> dict:
    """Packets/second of generate_trace, fast path vs scalar reference."""
    config = TraceConfig(**(QUICK_TRACE if quick else FULL_TRACE))
    with fastpath(True):
        generate_trace(config)  # warm plan/ufunc caches
        start = time.perf_counter()
        packets = generate_trace(config)
        fast_seconds = time.perf_counter() - start
    with fastpath(False):
        start = time.perf_counter()
        generate_trace(config)
        scalar_seconds = time.perf_counter() - start
    return {
        "packets": len(packets),
        "fast_seconds": round(fast_seconds, 4),
        "fast_pkts_per_sec": round(len(packets) / fast_seconds, 1),
        "scalar_seconds": round(scalar_seconds, 4),
        "speedup": round(scalar_seconds / fast_seconds, 2),
    }


def bench_detector_fit(quick: bool) -> dict:
    """Seconds for a TwoStageDetector fit (and its test accuracy)."""
    config = TraceConfig(**(QUICK_TRACE if quick else FULL_TRACE))
    with fastpath(True):
        dataset = make_dataset("bench", config)
    detector_config = (
        DetectorConfig(n_fields=6, selector_epochs=5, epochs=10, seed=3)
        if quick
        else DetectorConfig(n_fields=6, selector_epochs=20, epochs=40, seed=3)
    )
    detector = TwoStageDetector(detector_config)
    start = time.perf_counter()
    detector.fit(dataset.x_train, dataset.y_train_binary)
    seconds = time.perf_counter() - start
    predictions = detector.predict(dataset.x_test)
    accuracy = float((predictions == dataset.y_test_binary).mean())
    return {
        "rows": int(len(dataset.x_train)),
        "seconds": round(seconds, 3),
        "rows_per_sec": round(len(dataset.x_train) / seconds, 1),
        "accuracy": round(accuracy, 4),
    }


def bench_batch_switch(quick: bool) -> dict:
    """Packets/second through the switch, batch path vs scalar loop."""
    config = TraceConfig(**QUICK_TRACE)
    with fastpath(True):
        packets = generate_trace(config)
    target = 20_000 if quick else 200_000
    packets = (packets * (target // len(packets) + 1))[:target]
    offsets = (19, 34, 37, 48, 49, 63)
    rng = np.random.default_rng(0)

    def build() -> Switch:
        switch = Switch(SwitchConfig(key_offsets=offsets))
        table = TernaryTable("fw", len(offsets), max_entries=1024)
        for i in range(100):
            value = tuple(int(v) for v in rng.integers(0, 256, size=len(offsets)))
            table.add(value, (255,) * len(offsets), "drop", priority=i)
        switch.add_table(table)
        return switch

    start = time.perf_counter()
    build().process_trace(packets, batch_size=2048)
    batch_seconds = time.perf_counter() - start
    scalar_sample = packets[: max(target // 10, 1)]
    start = time.perf_counter()
    build().process_trace(scalar_sample)
    scalar_seconds = time.perf_counter() - start
    scalar_pps = len(scalar_sample) / scalar_seconds
    batch_pps = len(packets) / batch_seconds
    return {
        "packets": len(packets),
        "batch_seconds": round(batch_seconds, 4),
        "batch_pkts_per_sec": round(batch_pps, 1),
        "scalar_pkts_per_sec": round(scalar_pps, 1),
        "speedup": round(batch_pps / scalar_pps, 2),
    }


def bench_compiled_switch(quick: bool) -> dict:
    """Compile cost and batch throughput of the compiled LUT classifier.

    Same E10-style firewall fill as ``bench_batch_switch`` but at the
    experiment's largest table (1000 exact-mask ternary entries in full
    mode), replayed at the gateway batch size (1024).  Reports the
    program's size, its build time, and the packets/second it serves.
    """
    config = TraceConfig(**QUICK_TRACE)
    with fastpath(True):
        packets = generate_trace(config)
    target = 20_000 if quick else 200_000
    packets = (packets * (target // len(packets) + 1))[:target]
    entries = 100 if quick else 1000
    offsets = (19, 34, 37, 48, 49, 63)
    rng = np.random.default_rng(0)
    switch = Switch(SwitchConfig(key_offsets=offsets))
    table = TernaryTable("fw", len(offsets), max_entries=2048)
    for i in range(entries):
        value = tuple(int(v) for v in rng.integers(0, 256, size=len(offsets)))
        table.add(value, (255,) * len(offsets), "drop", priority=i)
    switch.add_table(table)

    start = time.perf_counter()
    report = switch.compile()
    compile_seconds = time.perf_counter() - start
    switch.process_trace(packets[:4096], batch_size=1024)  # warm
    start = time.perf_counter()
    switch.process_trace(packets, batch_size=1024)
    seconds = time.perf_counter() - start
    return {
        "packets": len(packets),
        "entries": report.entries,
        "bitmask_words": report.words,
        "lut_bytes": report.lut_bytes,
        "compile_seconds": round(compile_seconds, 4),
        "pkts_per_sec": round(len(packets) / seconds, 1),
    }


def bench_flight_recorder(quick: bool) -> dict:
    """Decision-provenance overhead: recorder-attached vs detached.

    Times the batch data path at batch 1024 with and without a
    :class:`repro.obs.FlightRecorder` attached (1 % allow sampling,
    the serve default) so the trajectory shows what enabling flight
    recording costs.  The perf-marked acceptance test holds the
    overhead at ≤15 %; this records the measured figure per commit.
    """
    config = TraceConfig(**QUICK_TRACE)
    with fastpath(True):
        base = generate_trace(config)
    target = 20_000 if quick else 200_000
    packets = (base * (target // len(base) + 1))[:target]
    offsets = (19, 34, 37, 48, 49, 63)
    rng = np.random.default_rng(0)

    def build() -> Switch:
        switch = Switch(SwitchConfig(key_offsets=offsets))
        table = TernaryTable("fw", len(offsets), max_entries=1024)
        for i in range(100):
            value = tuple(int(v) for v in rng.integers(0, 256, size=len(offsets)))
            table.add(value, (255,) * len(offsets), "drop", priority=i)
        switch.add_table(table)
        return switch

    def timed(switch: Switch) -> float:
        switch.process_trace(packets[:4096], batch_size=1024)  # warm
        switch.reset_stats()
        start = time.perf_counter()
        switch.process_trace(packets, batch_size=1024)
        return time.perf_counter() - start

    disabled_seconds = timed(build())
    recorded = build()
    recorder = obs.FlightRecorder(65536, sample_rate=0.01, seed=0)
    recorded.attach_recorder(recorder)
    enabled_seconds = timed(recorded)
    stats = recorder.stats()
    return {
        "packets": len(packets),
        "disabled_seconds": round(disabled_seconds, 4),
        "enabled_seconds": round(enabled_seconds, 4),
        "overhead_fraction": round(
            (enabled_seconds - disabled_seconds) / disabled_seconds, 4
        ),
        "resident_records": stats["resident"],
        "sampled_out": stats["sampled_out"],
    }


def bench_serve(quick: bool) -> dict:
    """Streaming-gateway soak vs. the offline batch replay baseline.

    Three numbers matter (the E17 acceptance set): sustained soak
    throughput as a fraction of the offline ``process_batch`` replay at
    batch 1024, the stream-time latency percentiles under that load,
    and the shed fraction once the offered load exceeds a constrained
    service capacity (bounded queues, explicit drop accounting).
    """
    from repro.eval.harness import replay_gateway, synthetic_firewall_ruleset
    from repro.serve import ServeConfig, StreamingGateway, retime

    config = TraceConfig(**QUICK_TRACE)
    with fastpath(True):
        base = generate_trace(config)
    target = 20_000 if quick else 200_000
    packets = (base * (target // len(base) + 1))[:target]
    rules = synthetic_firewall_ruleset()

    # Offline baseline: one-shot batch replay (warm run measured).
    replay_gateway(rules, packets[:2048], batch_size=1024)
    start = time.perf_counter()
    replay_gateway(rules, packets, batch_size=1024)
    offline_seconds = time.perf_counter() - start
    offline_pps = len(packets) / offline_seconds

    # Soak: offered load high enough that the size trigger dominates;
    # arrival re-timing happens up front so the wall clock measures the
    # gateway, exactly like the offline baseline.
    stamped = list(retime(packets, rate=500_000.0, seed=1))
    gateway = StreamingGateway(
        rules,
        ServeConfig(max_batch=1024, max_latency=0.005, record_verdicts=False),
    )
    soak = gateway.run(stamped)

    # Overload: halve the service capacity relative to the offered load
    # and bound the queue — the shed fraction is the backpressure story.
    offered_rate = 40_000.0
    overload_gateway = StreamingGateway(
        rules,
        ServeConfig(
            max_batch=1024,
            max_latency=0.005,
            queue_capacity=4096,
            service_rate=offered_rate / 2,
            record_verdicts=False,
        ),
    )
    overload = overload_gateway.run(
        list(retime(packets, rate=offered_rate, seed=2))
    )
    return {
        "packets": len(packets),
        "offline_pkts_per_sec": round(offline_pps, 1),
        "soak_pkts_per_sec": round(soak.pkts_per_sec, 1),
        "soak_vs_offline": round(soak.pkts_per_sec / offline_pps, 3),
        "soak_latency_p50_ms": round(1e3 * soak.latency_p50, 3),
        "soak_latency_p99_ms": round(1e3 * soak.latency_p99, 3),
        "batcher_wait_p99_ms": round(1e3 * soak.batcher_wait_p99, 3),
        "overload_shed_fraction": round(overload.shed_fraction, 4),
    }


def bench_parallel_serve(quick: bool) -> dict:
    """Worker-count saturation sweep for the process-parallel backend.

    Runs the same retimed soak through the inline backend and through
    1/2/4/8 process workers (quick mode stops at 2) and records
    aggregate throughput, p99 batch service time, and the speedup of
    the widest process run over inline.  On a single-core host the
    curve is honestly flat — the point of recording it is that the
    shape, not just the peak, lands in BENCH_perf.json.
    """
    from repro.eval.harness import synthetic_firewall_ruleset
    from repro.serve import ServeConfig, StreamingGateway, retime

    config = TraceConfig(**QUICK_TRACE)
    with fastpath(True):
        base = generate_trace(config)
    target = 20_000 if quick else 100_000
    packets = (base * (target // len(base) + 1))[:target]
    rules = synthetic_firewall_ruleset(n_rules=64, fields_per_rule=2)
    stamped = list(retime(packets, rate=1_000_000.0, seed=1))

    def soak(executor: str, n_shards: int):
        gateway = StreamingGateway(
            rules,
            ServeConfig(
                n_shards=n_shards,
                max_batch=512,
                max_latency=0.005,
                queue_capacity=8192,
                record_verdicts=False,
                executor=executor,
            ),
        )
        best = None
        for _ in range(2):
            result = gateway.run(stamped)
            if best is None or result.wall_seconds < best.wall_seconds:
                best = result
        return best

    metrics = {"packets": len(packets)}
    inline = soak("inline", 1)
    metrics["inline_pkts_per_sec"] = round(inline.pkts_per_sec, 1)
    metrics["inline_p99_batch_ms"] = round(1e3 * inline.batch_seconds_p99, 3)
    sweep = [1, 2] if quick else [1, 2, 4, 8]
    last_pps = inline.pkts_per_sec
    for workers in sweep:
        result = soak("process", workers)
        metrics[f"workers_{workers}_pkts_per_sec"] = round(
            result.pkts_per_sec, 1
        )
        metrics[f"workers_{workers}_p99_batch_ms"] = round(
            1e3 * result.batch_seconds_p99, 3
        )
        last_pps = result.pkts_per_sec
    metrics["max_workers"] = sweep[-1]
    metrics["speedup_vs_inline"] = round(
        last_pps / inline.pkts_per_sec, 3
    )
    return metrics


def bench_fleet_serving(quick: bool) -> dict:
    """Multi-tenant fleet soak: packing outcome and the capacity price.

    The E19 shape, recorded per commit: a fleet of tenants with varied
    rule-set sizes and bands is packed into a shared ternary-entry
    budget at 60 % and 100 % of total demand, routed by source prefix,
    and soaked.  Records the packing (installed tenants, evicted
    entries), the verdict fidelity of the constrained run against the
    fully-provisioned one (loss = fail-closed shedding of evicted
    tenants' traffic), and fleet throughput.  The per-tenant ledger
    invariant ``offered == installed + evicted`` is asserted, not just
    reported.
    """
    import dataclasses

    from repro.eval.harness import synthetic_firewall_ruleset
    from repro.fleet import FleetGateway, TenantSpec
    from repro.serve import ServeConfig, retime

    config = TraceConfig(**QUICK_TRACE)
    with fastpath(True):
        base = generate_trace(config)
    target = 6_000 if quick else 30_000
    n_tenants = 3 if quick else 6
    specs = [
        TenantSpec(
            name=f"class{i}",
            rules=synthetic_firewall_ruleset(
                n_rules=16 + 8 * i, fields_per_rule=2, seed=100 + i
            ),
            band=i % 3,
            src_prefix=f"10.{i}.0.0/16",
        )
        for i in range(n_tenants)
    ]
    demand = sum(spec.cost() for spec in specs)
    packets = (base * (target // len(base) + 1))[:target]
    routed = []
    for idx, packet in enumerate(packets):
        data = packet.data
        if len(data) >= 30 and data[12:14] == b"\x08\x00":
            data = data[:26] + bytes([10, idx % n_tenants]) + data[28:]
            packet = dataclasses.replace(packet, data=data)
        routed.append(packet)
    stamped = list(retime(routed, rate=500_000.0, seed=19))
    serve_config = ServeConfig(
        max_batch=256,
        max_latency=0.005,
        queue_capacity=65_536,
        record_verdicts=True,
    )

    full = FleetGateway(specs, serve_config, capacity=demand).run(stamped)
    constrained = FleetGateway(
        specs, serve_config, capacity=max(1, int(demand * 0.6))
    ).run(stamped)
    for result in (full, constrained):
        for name, account in result.accounts.items():
            assert account.balanced, f"{name}: unbalanced entry ledger"
    matches = sum(
        ours.action == theirs.action
        for ours, theirs in zip(constrained.verdicts, full.verdicts)
    )
    return {
        "packets": len(stamped),
        "tenants": n_tenants,
        "demand_entries": demand,
        "full_pkts_per_sec": round(full.offered / full.wall_seconds, 1),
        "full_installed_tenants": len(full.per_tenant),
        "constrained_budget": max(1, int(demand * 0.6)),
        "constrained_installed_tenants": len(constrained.per_tenant),
        "constrained_evicted_entries": sum(
            a.evicted for a in constrained.accounts.values()
        ),
        "constrained_fidelity": round(matches / constrained.offered, 4),
        "constrained_pkts_per_sec": round(
            constrained.offered / constrained.wall_seconds, 1
        ),
    }


def bench_corpus_replay(quick: bool) -> dict:
    """On-disk endurance path vs the in-memory soak it must keep up with.

    The E20 shape, recorded per commit: synthesize a chunked corpus to
    disk (recording build throughput), endurance-replay it through the
    streaming gateway with in-flight digest verification and one timed
    mid-replay drift→retrain→swap, then run the identical packets as an
    in-memory soak.  Records build and replay throughput, the
    replay/in-memory ratio (the price of streaming from disk), the RSS
    growth over the replay, and the swap latency.  The shed-accounting
    invariant ``offered == processed + shed`` is asserted, not just
    reported.
    """
    import shutil
    import tempfile

    from repro.corpus import CorpusSource, CorpusSpec, build_corpus, replay_corpus
    from repro.eval.harness import synthetic_firewall_ruleset
    from repro.serve import ServeConfig, StreamingGateway

    spec = CorpusSpec(
        n_packets=30_000 if quick else 600_000,
        chunk_packets=10_000 if quick else 200_000,
        window=10.0 if quick else 120.0,
        seed=20,
    )
    rules = synthetic_firewall_ruleset(seed=20)
    config = ServeConfig(
        max_batch=256,
        max_latency=0.005,
        queue_capacity=65_536,
        record_verdicts=False,
    )
    root = Path(tempfile.mkdtemp(prefix="bench-corpus-")) / "corpus"
    try:
        start = time.perf_counter()
        manifest = build_corpus(spec, root)
        build_seconds = time.perf_counter() - start
        report = replay_corpus(
            root,
            rules,
            config,
            swap_after=spec.n_packets // 2,
        )
        result = report.result
        assert result.offered == result.processed + result.shed
        assert report.chunks_verified == len(manifest.chunks)
        in_memory = list(CorpusSource(root, verify=False))
        baseline = StreamingGateway(rules, config).run(in_memory)
        return {
            "packets": manifest.packets,
            "chunks": len(manifest.chunks),
            "corpus_mb": round(manifest.bytes / 1e6, 1),
            "build_pkts_per_sec": round(manifest.packets / build_seconds, 1),
            "replay_pkts_per_sec": round(result.pkts_per_sec, 1),
            "in_memory_pkts_per_sec": round(baseline.pkts_per_sec, 1),
            "replay_ratio": round(
                result.pkts_per_sec / baseline.pkts_per_sec, 3
            ),
            "shed": result.shed,
            "rss_growth_mb": round(report.rss_growth_bytes / 1e6, 1),
            "swap_latency_ms": round(1e3 * report.swap_latency_seconds, 3),
        }
    finally:
        shutil.rmtree(root.parent, ignore_errors=True)


def run(quick: bool) -> dict:
    record = {
        "commit": _commit(),
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "mode": "quick" if quick else "full",
        "metrics": {},
    }
    # Run under an enabled registry so each phase gets a bench.<name>
    # span and the detector/switch instruments record; the full snapshot
    # rides along in the perf record for post-hoc analysis.
    registry = obs.Registry(enabled=True)
    with obs.use_registry(registry):
        for name, fn in [
            ("trace_synthesis", bench_trace_synthesis),
            ("detector_fit", bench_detector_fit),
            ("batch_switch", bench_batch_switch),
            ("compiled_switch", bench_compiled_switch),
            ("serve", bench_serve),
            ("parallel_serve", bench_parallel_serve),
            ("fleet_serving", bench_fleet_serving),
            ("corpus_replay", bench_corpus_replay),
            ("flight_recorder", bench_flight_recorder),
        ]:
            print(f"[bench] {name} ...", flush=True)
            start = time.perf_counter()
            with registry.span(f"bench.{name}"):
                record["metrics"][name] = fn(quick)
            elapsed = time.perf_counter() - start
            print(f"[bench] {name}: {json.dumps(record['metrics'][name])} "
                  f"({elapsed:.1f}s)", flush=True)
    record["obs"] = registry.snapshot()
    return record


def append_record(record: dict, output: Path) -> list:
    history = []
    if output.exists():
        try:
            history = json.loads(output.read_text())
        except (ValueError, OSError):
            print(f"[bench] warning: {output} unreadable, starting fresh",
                  file=sys.stderr)
        if not isinstance(history, list):
            history = []
    history.append(record)
    output.write_text(json.dumps(history, indent=2) + "\n")
    return history


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small configs (seconds, for smoke tests) instead of the "
        "full acceptance-scale run",
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT,
        help=f"perf trajectory file (default {DEFAULT_OUTPUT.name})",
    )
    args = parser.parse_args(argv)
    record = run(args.quick)
    history = append_record(record, args.output)
    print(f"[bench] appended record #{len(history)} to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
