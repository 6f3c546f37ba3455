"""One run of one workload: inputs, set-up, check pass, timed phases.

The phases, in order:

1. build the inputs from the seed (untimed);
2. set up the gateway several times (``setup_s``);
3. the check pass and one untimed warm-up run;
4. closed-loop runs (``throughput_pps``) and rule-swap runs with the
   flight recorder and alerts attached (``swap_ms``), interleaved in
   proportion to their shares of ``--seconds``: 40% and 20%.
   ``rule_swap`` swaps inside every closed-loop run instead, and those
   runs get both shares;
5. the open loop, paced by wall clock, 40% (``latency_*``).

Interleaving spreads both run kinds over the same stretch of time, so a
burst of contention on a shared host slows a few runs of each rather
than every run of one.  A ``--trace 1`` run goes through the same
phases.  Every other closed-loop run is traced, and so is every swap
run; the per-layer split comes from their spans.
"""

from __future__ import annotations

import contextlib
import gc
import resource
import time
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from repro import obs
from repro.serve import flow_shard

import measure
import tracer as tracing
import workloads

CLOSED_SHARE, PACED_SHARE, SWAP_SHARE = 0.4, 0.4, 0.2

#: name -> unit, in print order.
END_TO_END = {
    "setup_s": "s",
    "throughput_pps": "pkt/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "swap_ms": "ms",
    "rss_mb": "MB",
}
PER_LAYER = {
    "classify.us_per_pkt": "us/pkt",
    "classify.pkts_per_call": "pkt/call",
    "compile.ms": "ms",
    "deploy.s": "s",
    "install.ms_p50": "ms",
    "install.calls": "count",
    "hook.us_per_call": "us/call",
    "gateway.us_per_pkt": "us/pkt",
    "verdict_build.us_per_pkt": "us/pkt",
    "key_extract.us_per_pkt": "us/pkt",
    "obs.us_per_pkt": "us/pkt",
    "obs.calls_per_pkt": "call/pkt",
    "batcher.us_per_pkt": "us/pkt",
    "queue.us_per_pkt": "us/pkt",
    "accounting.us_per_pkt": "us/pkt",
    "source.us_per_pkt": "us/pkt",
    "flow_hash.us_per_pkt": "us/pkt",
    "recording.us_per_pkt": "us/pkt",
    "recording.records_per_pkt": "record/pkt",
    "alerts.us_per_pkt": "us/pkt",
    "batcher.fill_ratio": "fraction",
    "batcher.wait_mean_ms": "ms",
    "queue.high_watermark_pkts": "pkt",
    "generator.late_p99_ms": "ms",
    "trace.overhead_frac": "fraction",
    "trace.wall_us_per_pkt": "us/pkt",
}
#: Layers whose self times make up the traced closed-loop wall time.
SPLIT_LAYERS = (
    "gateway", "source", "flow_hash", "batcher", "queue", "verdict_build",
    "key_extract", "classify", "obs", "accounting", "recording", "alerts",
    "hook", "install",
)


def metric(name: str, value: float, values: Optional[Sequence[float]] = None) -> dict:
    """A metric entry; ``values`` are its within-run repetitions."""
    unit = END_TO_END.get(name) or PER_LAYER[name]
    entry = {"value": float(value), "unit": unit}
    if values is not None:
        q1, __, q3 = measure.quartiles(values)
        entry.update(q1=q1, q3=q3, n=len(values))
    return entry


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class WorkloadRun:
    """Everything one ``bench/run.py --workload`` invocation measures."""

    def __init__(self, name: str, seed: int, seconds: float, *, trace: bool, smoke: bool, out: Path):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.out = out
        self.workdir = out / name
        self.ledger = measure.Ledger()
        self.clock = measure.HostClock()
        origin = time.perf_counter()
        self.tracers = {
            phase: tracing.Tracer(phase, origin) for phase in ("setup", "closed", "swap")
        }

    def execute(self) -> dict:
        """Run every phase; returns the run record (see :meth:`record`)."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.registry = obs.Registry(enabled=True)
        with obs.use_registry(self.registry):
            self.build()
            self.set_up()
            self.check()
            self.closed_and_swap_phase()
            self.paced_phase()
            self.peak_rss = peak_rss_mb()
            if self.trace:
                switch = measure.deployed_switch(self.wl.rules, self.wl.config.table_capacity)
                with self.tracers["setup"].installed(tracing.setup_layers()):
                    switch.compile()
        return self.record()

    # -- phases ------------------------------------------------------------------

    def build(self) -> None:
        self.wl = workloads.build(
            self.name, self.seed,
            paced_seconds=PACED_SHARE * self.seconds, smoke=self.smoke, workdir=self.workdir,
        )
        # The pre-generated packets are the benchmark's, not the
        # gateway's: keep full collections from walking them.
        gc.collect()
        gc.freeze()
        self.rule_sets = (self.wl.rules, self.wl.alt_rules)
        self.hook = measure.SwapHook(self.rule_sets, self.wl.swap_every)
        self.clock.tick(3)

    def set_up(self) -> None:
        layers = tracing.setup_layers() if self.trace else []
        with self.tracers["setup"].installed(layers):
            self.setup_times, first, self.gateway = measure.setup_phase(
                self.wl, self.workdir / "rules.json"
            )
        self.clock.tick(3)
        # The first gateway built never serves: its switch is a fresh
        # deployment of the rules, the reference for the oracle and for
        # re-classifying swap runs, beside one of the swap partner.
        self.references = (
            first.shards[0].switch,
            measure.deployed_switch(self.wl.alt_rules, self.wl.config.table_capacity),
        )

    def check(self) -> None:
        rng = np.random.default_rng([self.seed, 0])
        self.reference = measure.check_pass(self.wl, self.gateway, *self.references, rng)
        self.ledger.attempted += self.reference.oracle_checked
        self.ledger.fail(
            self.reference.oracle_mismatches,
            f"{self.reference.oracle_mismatches} verdicts differ from the scalar oracle",
        )
        self.f1 = None
        if self.wl.labels is not None:
            self.f1 = measure.detect_f1(self.reference.codes, self.wl.labels)
            if self.f1 < workloads.F1_FLOOR:
                self.ledger.fail(1, f"detect_f1 {self.f1:.4f} below {workloads.F1_FLOOR}")
        # Untimed, so lazy set-up and caches are done before timing.
        warm = measure.closed_run(self.gateway, self.wl.closed.make())
        self.account("warm-up", warm.result, self.wl.closed)
        self.clock.tick()

    def closed_and_swap_phase(self) -> None:
        """Closed-loop and swap runs, interleaved by their time budgets."""
        operator = self.wl.operator
        budget = {
            "closed": (CLOSED_SHARE + (SWAP_SHARE if operator else 0.0)) * self.seconds,
            "swap": 0.0 if operator else SWAP_SHARE * self.seconds,
        }
        spent = {"closed": 0.0, "swap": 0.0}
        minimum = measure.MIN_CLOSED_RUNS * (2 if self.trace else 1)
        self.closed: List[measure.ClosedRun] = []
        self.swaps: List[measure.ClosedRun] = []
        while True:
            want = {
                "closed": len(self.closed) < minimum or spent["closed"] < budget["closed"],
                "swap": not operator and (not self.swaps or spent["swap"] < budget["swap"]),
            }
            if not any(want.values()):
                break
            kind = min(
                (k for k in want if want[k]),
                key=lambda k: spent[k] / budget[k] if budget[k] else 0.0,
            )
            start = time.perf_counter()
            if kind == "swap":
                tracer = self.tracers["swap"] if self.trace else None
                self.swaps.append(self.swap_run(self.wl.swaps, tracer, self.swaps))
            else:
                # Traced and untraced runs alternate, so the tracing
                # overhead is measured over the same stretch of time.
                tracer = self.tracers["closed"] if self.trace and len(self.closed) % 2 else None
                if operator:
                    run = self.swap_run(self.wl.closed, tracer, self.closed)
                else:
                    run = self.serve(self.wl.closed, tracer)
                    self.account("closed run", run.result, self.wl.closed)
                self.closed.append(run)
            spent[kind] += time.perf_counter() - start
        self.operator_runs = self.closed if operator else self.swaps
        self.operator_tracer = self.tracers["closed" if operator else "swap"]

    def paced_phase(self) -> None:
        waits = self.registry.histogram("serve_batcher_wait_seconds", unit="s")
        before = (waits.sum, waits.count)
        operator = (
            measure.operator_mode(self.gateway, None, seed=self.seed)
            if self.wl.operator else contextlib.nullcontext()
        )
        with operator:
            self.paced = measure.paced_run(
                self.gateway, self.wl.paced.make(), PACED_SHARE * self.seconds
            )
        self.wait_mean = (waits.sum - before[0]) / (waits.count - before[1])
        self.account("paced run", self.paced.result, self.wl.paced)

    # -- serving -----------------------------------------------------------------

    def serve(self, source: workloads.Source, tracer) -> measure.ClosedRun:
        """One closed-loop run, traced or not, then a host-clock reading."""
        if tracer is None:
            run = measure.closed_run(self.gateway, source.make())
        else:
            with tracer.installed(tracing.serve_layers()):
                run = measure.closed_run(self.gateway, tracer.source(source.make()))
        self.clock.tick()
        run.traced = tracer is not None
        return run

    def swap_run(self, source, tracer, series: List[measure.ClosedRun]) -> measure.ClosedRun:
        """One closed-loop run under rule swaps, in the operator configuration.

        The first run of a ``series`` keeps its batches and is
        re-classified batch by batch; later runs must reproduce its
        switch counts exactly.
        """
        self.hook.reset()
        self.hook.keep = not series
        installs: List[tuple] = []
        with measure.operator_mode(self.gateway, self.hook, seed=self.seed) as recorder:
            with measure.timed_installs(self.rule_sets, installs):
                run = self.serve(source, tracer)
            run.records = recorder.recorded
        run.installs = installs
        if self.hook.active:
            # Every run starts on the deployed rule set.
            self.gateway.shards.install(self.rule_sets[0])
        self.ledger.account("swap run", run.result, None)
        if not series:
            checked, wrong = measure.verify_swaps(self.hook, self.references)
            self.ledger.fail(wrong, f"swap run: {wrong} of {checked} re-classified verdicts differ")
            self.hook.batches = []
        elif run.result.stats != series[0].result.stats:
            self.ledger.fail(1, f"swap run counts {run.result.stats} != first run {series[0].result.stats}")
        return run

    def account(self, label: str, result, source: workloads.Source) -> None:
        self.ledger.account(label, result, self.reference.expected(source.index(result.offered)))

    # -- results -----------------------------------------------------------------

    def record(self) -> dict:
        """The run's record: correctness, context, and its metrics."""
        untraced = [run for run in self.closed if not run.traced]
        if self.trace:
            metrics = self.per_layer(untraced)
        else:
            metrics = self.end_to_end(untraced)
        record = {
            "workload": self.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "smoke": self.smoke,
            "inputs_sha256": self.wl.digest,
            "correct": self.ledger.failed == 0,
            "attempted": self.ledger.attempted,
            "failed": self.ledger.failed,
            "error_rate": self.ledger.failed / self.ledger.attempted,
            "detect_f1": self.f1,
            "host_slowdown": self.clock.slowdown,
            "closed_runs": len(untraced),
            "installs": sum(len(run.installs) for run in self.operator_runs),
            "latency_samples": int(len(self.paced.latency)),
            "latency_p99_whole_ms": 1e3 * measure.p99(self.paced.latency),
            "notes": self.ledger.notes,
            "metrics": metrics,
        }
        if self.trace:
            record["split_us_per_pkt"] = self.split
            record["missing_boundaries"] = sorted(
                set().union(*(t.missing for t in self.tracers.values()))
            )
            record["spans_written"] = tracing.write_jsonl(
                self.tracers.values(), self.out / f"{self.name}.trace.jsonl"
            )
        else:
            record["raw"] = self.raw
        return record

    def end_to_end(self, untraced) -> dict:
        # Pure-work timings are reported at the reference host speed
        # (see measure.HostClock); the raw readings go in the record.
        slowdown = self.clock.slowdown
        self.raw = {
            "setup_s": float(np.median(self.setup_times)),
            "throughput_pps": float(np.median([run.pps for run in untraced])),
            "swap_ms": measure.swap_ms(self.operator_runs),
        }
        setup = [t / slowdown for t in self.setup_times]
        pps = [run.pps * slowdown for run in untraced]
        latency = self.paced.latency
        return {
            "setup_s": metric("setup_s", np.median(setup), setup),
            "throughput_pps": metric("throughput_pps", np.median(pps), pps),
            "latency_p50_ms": metric("latency_p50_ms", 1e3 * np.median(latency)),
            "latency_p99_ms": metric("latency_p99_ms", 1e3 * measure.windowed_p99(latency)),
            "swap_ms": metric("swap_ms", self.raw["swap_ms"] / slowdown),
            "rss_mb": metric("rss_mb", self.peak_rss),
        }

    def per_layer(self, untraced) -> dict:
        closed = self.tracers["closed"]
        operator = self.operator_tracer
        traced = [run for run in self.closed if run.traced]
        packets = sum(run.result.offered for run in traced)
        wall_us = 1e6 * sum(run.wall for run in traced) / packets
        self.split = split = {layer: closed.us_per(layer, packets) for layer in SPLIT_LAYERS}
        if abs(sum(split.values()) - wall_us) > 0.1 * wall_us:
            self.ledger.fail(
                1, f"self times sum to {sum(split.values()):.2f} us/pkt, traced wall {wall_us:.2f}"
            )
        if self.wl.config.n_shards > 1:
            flow_hash = split["flow_hash"]
        else:
            # Single-shard serving skips the hash; time it on this
            # workload's packets as a two-shard deployment would run it.
            flow_hash = time_flow_hash(self.wl.closed.make())
        operator_packets = sum(run.result.offered for run in self.operator_runs)
        paced = self.paced.result
        setup = self.tracers["setup"]
        values = {
            "classify.us_per_pkt": split["classify"],
            "classify.pkts_per_call": packets / max(closed.calls["classify"], 1),
            "compile.ms": 1e3 * np.median(setup.durations["compile"]),
            "deploy.s": np.median(setup.durations["deploy"]),
            "install.ms_p50": 1e3 * np.median(operator.durations["install"]),
            "install.calls": operator.calls["install"],
            "hook.us_per_call": 1e6 * operator.self_seconds["hook"] / max(operator.calls["hook"], 1),
            "gateway.us_per_pkt": split["gateway"],
            "verdict_build.us_per_pkt": split["verdict_build"],
            "key_extract.us_per_pkt": split["key_extract"],
            "obs.us_per_pkt": split["obs"],
            "obs.calls_per_pkt": closed.calls["obs"] / packets,
            "batcher.us_per_pkt": split["batcher"],
            "queue.us_per_pkt": split["queue"],
            "accounting.us_per_pkt": split["accounting"],
            "source.us_per_pkt": split["source"],
            "flow_hash.us_per_pkt": flow_hash,
            "recording.us_per_pkt": operator.us_per("recording", operator_packets),
            "recording.records_per_pkt": sum(run.records for run in self.operator_runs) / operator_packets,
            "alerts.us_per_pkt": operator.us_per("alerts", operator_packets),
            "batcher.fill_ratio": paced.processed / paced.batches / self.wl.config.max_batch,
            "batcher.wait_mean_ms": 1e3 * self.wait_mean,
            "queue.high_watermark_pkts": max(row["queue_high_watermark"] for row in paced.per_shard),
            "generator.late_p99_ms": 1e3 * measure.p99(self.paced.late),
            "trace.overhead_frac": np.median([r.wall for r in traced]) / np.median([r.wall for r in untraced]) - 1.0,
            "trace.wall_us_per_pkt": wall_us,
        }
        return {name: metric(name, values[name]) for name in PER_LAYER}


def time_flow_hash(packets) -> float:
    """Microseconds per packet for ``flow_shard`` into two shards."""
    packets = list(packets)
    start = time.perf_counter()
    for packet in packets:
        flow_shard(packet, 2)
    return 1e6 * (time.perf_counter() - start) / len(packets)
