"""Self-test of the serve-path benchmark.

    python -m pytest bench/

Runs every workload at smoke size in both modes, plants a verdict
mismatch to prove the correctness gate fails the run, and checks the
printed catalogue against BENCHMARK.json.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import session  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CONTRACT_KEYS = {"correct", "attempted", "failed", "metrics"}


def catalogue(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_catalogue_matches_benchmark_json():
    assert session.END_TO_END == catalogue("end_to_end")
    assert session.PER_LAYER == catalogue("per_layer")
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["run_seconds"] == run.DEFAULT_SECONDS
    assert SPEC["paths"] == [BENCH.name]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.fixture(scope="module", params=[0, 1], ids=["end_to_end", "per_layer"])
def smoke_all(request, tmp_path_factory):
    """All four workloads at smoke size, one subprocess each."""
    out = tmp_path_factory.mktemp(f"trace{request.param}")
    child = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--seconds", "1",
         "--trace", str(request.param), "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    return request.param, out, child


def test_smoke_prints_every_metric_with_its_unit(smoke_all):
    trace, out, child = smoke_all
    assert child.returncode == 0, child.stdout
    last = json.loads(child.stdout.splitlines()[-1])
    assert set(last) == CONTRACT_KEYS
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    expected = catalogue("per_layer" if trace else "end_to_end")
    printed = {name: entry["unit"] for name, entry in last["metrics"].items()}
    assert printed == {
        f"{w}.{name}": unit for w in workloads.WORKLOADS for name, unit in expected.items()
    }
    for name in expected:
        assert f"  {name} " in child.stdout
    runs = json.loads((out / "results.json").read_text())["runs"]
    assert [r["workload"] for r in runs] == list(workloads.WORKLOADS)
    assert all(r["error_rate"] == 0 for r in runs)
    if trace:
        for record in runs:
            assert (out / f"{record['workload']}.trace.jsonl").stat().st_size > 0
            assert not record["missing_boundaries"]


def test_planted_mismatch_fails_the_run(monkeypatch, tmp_path, capsys):
    from repro.dataplane import Switch

    original = Switch.classify_arrays

    def flip_first(self, keys, sizes, **kwargs):
        action, table, entry = original(self, keys, sizes, **kwargs)
        action = action.copy()
        action[0] = "allow" if action[0] == "drop" else "drop"
        return action, table, entry

    monkeypatch.setattr(Switch, "classify_arrays", flip_first)
    status = run.main(
        ["--workload", "learned_rules", "--smoke", "--seconds", "1", "--out", str(tmp_path)]
    )
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert status != 0
    assert not last["correct"] and last["failed"] > 0
    record = json.loads((tmp_path / "learned_rules.json").read_text())["runs"][0]
    assert record["error_rate"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    child = subprocess.run(
        SPEC["command"] + ["--workload", "wide_table", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert child.stdout.strip() == ""


def _results(path: Path, values, spread=None) -> Path:
    runs = []
    for value in values:
        entry = {"value": value, "unit": "pkt/s"}
        if spread is not None:
            entry.update(q1=value * (1 - spread), q3=value * (1 + spread), n=5)
        runs.append(
            {"workload": "wide_table", "error_rate": 0.0, "detect_f1": None,
             "metrics": {"throughput_pps": entry}}
        )
    path.write_text(json.dumps({"runs": runs}))
    return path


def _flag(a: Path, b: Path) -> str:
    rows, __ = compare.compare(a, b, SPEC)
    (row,) = [r for r in rows if r[1] == "throughput_pps"]
    return row[-1]


def test_compare_flags_within_worse_and_unresolved(tmp_path):
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}["throughput_pps"]
    base = _results(tmp_path / "a.json", [1000, 1010, 990, 1005, 995])
    same = _results(tmp_path / "b.json", [1002, 998, 1001, 1003, 997])
    slow = _results(tmp_path / "c.json", [v * (1 - 2 * bound) for v in (1000, 1010, 990, 1005, 995)])
    noisy = _results(tmp_path / "d.json", [1000], spread=bound)
    assert _flag(base, same) == "within"
    assert _flag(base, slow) == "worse"
    assert _flag(base, noisy) == "unresolved"
    assert compare.main([str(base), str(slow)]) == 1


def test_readme_links_resolve():
    sys.path.insert(0, str(ROOT / "tools"))
    import docs_check

    assert docs_check.check_file(BENCH / "README.md", {}) == []
