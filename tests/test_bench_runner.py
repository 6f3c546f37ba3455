"""The BENCH_perf.json trajectory: its appender and the committed records."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())

_spec = importlib.util.spec_from_file_location("tools_bench", REPO_ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

#: Records from the retired nine-phase timer carry ``metrics``, not ``runs``.
LEGACY_KEYS = {"commit", "date", "mode", "metrics"}
LEGACY_GROUPS = {"trace_synthesis", "detector_fit", "batch_switch"}
RECORD_KEYS = {"commit", "date", "fingerprint", "runs"}


def fake_run(workload="learned_rules", trace=0, correct=True, smoke=False) -> dict:
    return {
        "workload": workload, "seed": 7, "trace": trace, "smoke": smoke,
        "correct": correct, "host_slowdown": 1.0,
        "metrics": {"throughput_pps": {"value": 1e5, "unit": "pkt/s"}},
    }


def write_results(path: Path, runs) -> Path:
    path.write_text(json.dumps({"fingerprint": {"nproc": 2, "commit": "abc"}, "runs": runs}))
    return path


def test_append_keeps_records_and_refuses_bad_runs(tmp_path):
    e2e = write_results(tmp_path / "e2e.json", [fake_run()])
    trace = write_results(tmp_path / "trace.json", [fake_run(trace=1)])
    record = bench.build_record(e2e, trace)
    assert set(record) == RECORD_KEYS
    assert record["fingerprint"] == {"nproc": 2, "commit": "abc"}
    assert [run["trace"] for run in record["runs"]] == [0, 1]

    output = tmp_path / "BENCH_perf.json"
    bench.append_record(record, output)
    first = output.read_text()
    history = bench.append_record(dict(record, commit="second"), output)
    assert len(history) == 2
    assert json.loads(output.read_text())[0] == json.loads(first)[0]

    for bad in (fake_run(correct=False), fake_run(smoke=True)):
        assert bench.build_record(write_results(tmp_path / "bad.json", [fake_run(), bad]), trace) is None
        assert bench.build_record(e2e, write_results(tmp_path / "bad.json", [bad])) is None


def test_repo_trajectory_file_is_schema_valid():
    """The committed BENCH_perf.json must stay parseable and well-formed."""
    path = REPO_ROOT / "BENCH_perf.json"
    if not path.exists():
        pytest.skip("no committed BENCH_perf.json")
    history = json.loads(path.read_text())
    assert isinstance(history, list) and history
    units = {
        "end_to_end": {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    workloads = {w["name"] for w in SPEC["workloads"]}
    for record in history:
        if "runs" not in record:
            assert LEGACY_KEYS <= set(record)
            assert LEGACY_GROUPS <= set(record["metrics"])
            continue
        assert set(record) == RECORD_KEYS
        for run in record["runs"]:
            assert run["correct"] is True and run["smoke"] is False, run["workload"]
            assert run["host_slowdown"] > 0
            catalogue = units["per_layer" if run["trace"] else "end_to_end"]
            for name, entry in run["metrics"].items():
                assert catalogue.get(name) == entry["unit"], (run["workload"], name)
        for trace in (0, 1):
            assert workloads <= {run["workload"] for run in record["runs"] if run["trace"] == trace}
