"""Smoke test for tools/bench.py: schema-valid, append-only trajectory."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH = REPO_ROOT / "tools" / "bench.py"

#: Records written before the telemetry layer lack "obs"; the committed
#: trajectory is append-only, so historical records stay valid as-is.
BASE_RECORD_KEYS = {"commit", "date", "mode", "metrics"}
RECORD_KEYS = BASE_RECORD_KEYS | {"obs"}
METRIC_GROUPS = {
    "trace_synthesis",
    "detector_fit",
    "batch_switch",
    "compiled_switch",
    "serve",
    "parallel_serve",
    "fleet_serving",
    "corpus_replay",
    "flight_recorder",
}
#: Phases added after the trajectory started; absent from old records.
LEGACY_OPTIONAL_GROUPS = {
    "serve", "flight_recorder", "compiled_switch", "parallel_serve",
    "fleet_serving", "corpus_replay",
}


def run_bench(output: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(BENCH), "--quick", "--output", str(output)],
        env=env, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.slow
def test_bench_appends_schema_valid_records(tmp_path):
    output = tmp_path / "BENCH_perf.json"

    result = run_bench(output)
    assert result.returncode == 0, result.stderr
    history = json.loads(output.read_text())
    assert isinstance(history, list) and len(history) == 1

    (record,) = history
    assert set(record) == RECORD_KEYS
    assert record["mode"] == "quick"
    assert isinstance(record["commit"], str) and record["commit"]
    assert "T" in record["date"]  # ISO-8601 timestamp
    assert set(record["metrics"]) == METRIC_GROUPS
    for group in METRIC_GROUPS:
        metrics = record["metrics"][group]
        assert metrics, f"{group} produced no numbers"
        assert all(
            isinstance(v, (int, float)) for v in metrics.values()
        ), f"{group} has non-numeric values: {metrics}"
    assert record["metrics"]["trace_synthesis"]["speedup"] > 1.0
    assert record["metrics"]["batch_switch"]["speedup"] > 1.0
    assert record["metrics"]["detector_fit"]["seconds"] > 0
    compiled = record["metrics"]["compiled_switch"]
    assert compiled["entries"] > 0 and compiled["bitmask_words"] >= 1
    assert compiled["lut_bytes"] == 6 * 256 * compiled["bitmask_words"] * 8
    assert compiled["compile_seconds"] >= 0
    assert compiled["pkts_per_sec"] > 0
    serve = record["metrics"]["serve"]
    assert serve["soak_vs_offline"] > 0
    assert 0.0 <= serve["overload_shed_fraction"] <= 1.0
    parallel = record["metrics"]["parallel_serve"]
    assert parallel["inline_pkts_per_sec"] > 0
    assert parallel["speedup_vs_inline"] > 0
    for workers in (1, parallel["max_workers"]):
        assert parallel[f"workers_{workers}_pkts_per_sec"] > 0
        assert parallel[f"workers_{workers}_p99_batch_ms"] >= 0
    fleet = record["metrics"]["fleet_serving"]
    assert fleet["tenants"] > 0 and fleet["demand_entries"] > 0
    assert fleet["full_installed_tenants"] == fleet["tenants"]
    assert fleet["constrained_installed_tenants"] < fleet["tenants"]
    assert fleet["constrained_evicted_entries"] > 0
    assert 0.0 <= fleet["constrained_fidelity"] < 1.0
    assert fleet["full_pkts_per_sec"] > 0
    corpus = record["metrics"]["corpus_replay"]
    assert corpus["packets"] > 0 and corpus["chunks"] > 1
    assert corpus["build_pkts_per_sec"] > 0
    assert corpus["replay_pkts_per_sec"] > 0
    assert corpus["replay_ratio"] > 0
    assert corpus["swap_latency_ms"] > 0
    assert corpus["shed"] >= 0
    flight = record["metrics"]["flight_recorder"]
    assert flight["disabled_seconds"] > 0 and flight["enabled_seconds"] > 0
    assert flight["resident_records"] > 0

    # Telemetry snapshot rides along: per-phase bench spans + counters.
    obs_metrics = record["obs"]["metrics"]
    assert isinstance(obs_metrics, list) and obs_metrics
    span_labels = {
        m["labels"].get("span")
        for m in obs_metrics
        if m["name"] == "span_seconds"
    }
    assert {f"bench.{group}" for group in METRIC_GROUPS} <= span_labels
    names = {m["name"] for m in obs_metrics}
    assert "switch_packets_total" in names
    assert "table_lookups_total" in names

    # Second run appends; the first record is preserved verbatim.
    assert run_bench(output).returncode == 0
    history2 = json.loads(output.read_text())
    assert len(history2) == 2
    assert history2[0] == record


def test_repo_trajectory_file_is_schema_valid():
    """The committed BENCH_perf.json must stay parseable and well-formed."""
    path = REPO_ROOT / "BENCH_perf.json"
    if not path.exists():
        pytest.skip("no committed BENCH_perf.json")
    history = json.loads(path.read_text())
    assert isinstance(history, list) and history
    for record in history:
        assert BASE_RECORD_KEYS <= set(record)
        assert METRIC_GROUPS - LEGACY_OPTIONAL_GROUPS <= set(record["metrics"])
