#!/usr/bin/env python
"""Append one serve-path benchmark record to ``BENCH_perf.json``.

Runs ``bench/run.py`` into a fresh temporary directory twice: five
untraced passes over every workload (seeds 7..11), then one traced pass
for the per-layer split.  If both exit cleanly and every run is correct
and full-size, it appends ``{"commit", "date", "fingerprint", "runs"}``:
``commit`` is ``git describe --always --dirty``, ``fingerprint`` the
untraced pass's host fingerprint, and ``runs`` the untraced runs then
the traced ones, verbatim, so ``bench/compare.py`` reads a record as a
results file.  Otherwise it appends nothing and exits 1.  Run it as
``make bench``; existing records are never rewritten.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_perf.json"
PASSES = {"e2e": ["--runs", "5", "--seed", "7"], "trace": ["--trace", "1", "--seed", "7"]}
DESCRIBE = ["git", "describe", "--always", "--dirty"]


def build_record(e2e: Path, trace: Path) -> dict | None:
    """The record for two ``results.json`` files; None if a run is bad."""
    results = json.loads(e2e.read_text())
    runs = results["runs"] + json.loads(trace.read_text())["runs"]
    bad = [run for run in runs if not run["correct"] or run["smoke"]]
    for run in bad:
        print(f"[bench] bad run: {run['workload']} seed {run['seed']} trace {run['trace']}", file=sys.stderr)
    if bad:
        return None
    return {
        "commit": subprocess.run(DESCRIBE, cwd=REPO_ROOT, capture_output=True, text=True).stdout.strip() or "unknown",
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "fingerprint": results["fingerprint"],
        "runs": runs,
    }


def append_record(record: dict, output: Path) -> list:
    history = []
    if output.exists():
        try:
            history = json.loads(output.read_text())
        except (ValueError, OSError):
            print(f"[bench] warning: {output} unreadable, starting fresh", file=sys.stderr)
        if not isinstance(history, list):
            history = []
    history.append(record)
    output.write_text(json.dumps(history, indent=2) + "\n")
    return history


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        out = Path(tmp)
        for name, args in PASSES.items():
            command = [sys.executable, str(REPO_ROOT / "bench" / "run.py"), *args, "--out", str(out / name)]
            if subprocess.run(command).returncode != 0:
                print(f"[bench] {name} pass failed; nothing appended", file=sys.stderr)
                return 1
        record = build_record(out / "e2e" / "results.json", out / "trace" / "results.json")
    if record is None:
        return 1
    print(f"[bench] appended record #{len(append_record(record, OUTPUT))} ({record['commit']}) to {OUTPUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
