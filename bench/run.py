#!/usr/bin/env python3
"""Serve-path benchmark: four workloads through ``StreamingGateway``.

Usage::

    python3 bench/run.py --seed 7                      # all workloads, one subprocess each
    python3 bench/run.py --workload wide_table --seed 7 --seconds 16 --trace 0
    python3 bench/run.py --workload pcap_sharded --trace 1   # per-layer split
    python3 bench/run.py --smoke                       # tiny sizes, for the self-test

Each run serves its workload the way ``repro serve`` does: the inline
executor, ``ServeConfig`` defaults (``max_batch`` 1024, ``max_latency``
5 ms, ``queue_capacity`` 8192) and an enabled ``repro.obs`` registry.
A run builds its inputs from ``--seed``, sets up the gateway several
times, checks verdicts against the scalar oracle, then measures for
``--seconds`` (see ``session.py`` for the phases).  It prints one line
per metric and, last, one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  It exits non-zero when any packet was shed,
lost or misclassified.  With ``--trace 1`` the metrics are the
per-layer split instead of the end-to-end numbers.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SECONDS = 16
DEFAULT_OUT = BENCH / "out"
#: A child that has not finished in this long has hung.
CHILD_TIMEOUT = 900


def fingerprint() -> dict:
    """The host and code a result was measured on."""
    import numpy

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: "):
            ref = ROOT / ".git" / commit[5:]
            commit = ref.read_text().strip() if ref.is_file() else commit[5:]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "commit": commit,
        "env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
    }


def print_record(record: dict) -> None:
    print(
        f"workload {record['workload']}  seed {record['seed']}  "
        f"trace {record['trace']}  inputs {record['inputs_sha256'][:12]}"
    )
    for name, entry in record["metrics"].items():
        spread = ""
        if "q1" in entry:
            spread = f"  (q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, n {entry['n']})"
        print(f"  {name:<28} {entry['value']:>14.6g} {entry['unit']}{spread}")
    f1 = record["detect_f1"]
    print(
        f"  error_rate {record['error_rate']:.6g} ({record['failed']} of {record['attempted']})"
        + (f"  detect_f1 {f1:.6f}" if f1 is not None else "")
        + f"  latency samples {record['latency_samples']}"
        + f"  host slowdown {record['host_slowdown']:.3f}"
    )
    for note in record["notes"]:
        print(f"  FAILED: {note}")


def contract_line(record: dict) -> str:
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": entry["value"], "unit": entry["unit"]}
                for name, entry in record["metrics"].items()
            },
        }
    )


def write_results(path: Path, records) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"fingerprint": fingerprint(), "runs": records}, indent=2) + "\n")


def run_all(args) -> int:
    """Each workload in its own fresh subprocess, one at a time."""
    import workloads

    records = []
    status = 0
    for i in range(args.runs):
        for name in workloads.WORKLOADS:
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed + i),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", str(args.out),
            ] + (["--smoke"] if args.smoke else [])
            result_file = args.out / f"{name}.json"
            result_file.unlink(missing_ok=True)
            child = subprocess.run(
                command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT
            )
            print("\n".join(child.stdout.splitlines()[:-1]), flush=True)
            if child.returncode != 0:
                status = 1
            if result_file.is_file():
                records.extend(json.loads(result_file.read_text())["runs"])
            else:
                print(f"bench: {name} wrote no result (exit {child.returncode})", file=sys.stderr)
                status = 1
    write_results(args.out / "results.json", records)
    print(f"wrote {args.out / 'results.json'}")
    print(
        json.dumps(
            {
                "correct": status == 0 and all(r["correct"] for r in records),
                "attempted": sum(r["attempted"] for r in records),
                "failed": sum(r["failed"] for r in records),
                "metrics": {
                    f"{r['workload']}.{name}": {"value": e["value"], "unit": e["unit"]}
                    for r in records
                    for name, e in r["metrics"].items()
                },
            }
        )
    )
    return status


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload in this process (default: all, one subprocess each)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: report the per-layer split from traced runs",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    parser.add_argument("--runs", type=int, default=1, help="all-workloads mode: seeds seed .. seed+runs-1")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="directory for results, traces and the corpus")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no repro sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    args.out = args.out.resolve()
    if args.workload is None:
        return run_all(args)
    import session

    record = session.WorkloadRun(
        args.workload, args.seed, args.seconds,
        trace=bool(args.trace), smoke=args.smoke, out=args.out,
    ).execute()
    write_results(args.out / f"{args.workload}.json", [record])
    print_record(record)
    print(contract_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
