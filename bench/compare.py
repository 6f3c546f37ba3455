#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

Usage::

    python3 bench/compare.py A.json B.json

Each file is one that ``bench/run.py`` writes (``bench/out/results.json``
or ``bench/out/<workload>.json``).  A is the baseline, B the candidate.
For every (workload, metric) pair the tool prints each side's median
and quartiles.  Quartiles are taken across a side's runs.  A side with
a single run uses that run's own repetitions where the metric has them
(set-ups, closed-loop runs), and otherwise the value alone.

Each end-to-end row is flagged, with its bound from ``BENCHMARK.json``:

* ``within``: B's median is no worse than A's by more than the bound;
* ``worse``: it is worse by more than the bound;
* ``unresolved``: a side's spread (q3 - q1 as a share of its median) is
  wider than the bound, so the medians cannot be told apart; unless
  each side has several runs and every run of B reads better than
  every run of A (``better``).

``error_rate`` and ``detect_f1`` are compared exactly.  Per-layer
metrics from ``--trace 1`` runs are listed without a flag.  Exits 1 when
any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Record fields compared exactly: name -> which direction is better.
EXACT = {"error_rate": "lower", "detect_f1": "higher"}


def load_runs(path: Path) -> Dict[str, List[dict]]:
    """Runs of a result file, grouped by workload."""
    grouped: Dict[str, List[dict]] = {}
    for run in json.loads(path.read_text())["runs"]:
        grouped.setdefault(run["workload"], []).append(run)
    return grouped


def side(runs: List[dict], name: str) -> Optional[Tuple[float, float, float, List[float]]]:
    """(q1, median, q3, per-run values) of one metric over one side's runs."""
    if name in EXACT:
        entries = [{"value": run[name]} for run in runs if run.get(name) is not None]
    else:
        entries = [run["metrics"][name] for run in runs if name in run["metrics"]]
    if not entries:
        return None
    values = [entry["value"] for entry in entries]
    if len(values) > 1:
        q1, __, q3 = statistics.quantiles(values, n=4)
        return q1, statistics.median(values), q3, values
    (entry,) = entries
    return entry.get("q1", entry["value"]), entry["value"], entry.get("q3", entry["value"]), values


def verdict(a, b, better: str, bound: float) -> str:
    """Flag one row; ``a``/``b`` are :func:`side` results."""
    sign = 1.0 if better == "lower" else -1.0
    if bound == 0.0:
        return "within" if sign * (b[1] - a[1]) <= 0 else "worse"
    a_spread = (a[2] - a[0]) / abs(a[1]) if a[1] else 0.0
    b_spread = (b[2] - b[0]) / abs(b[1]) if b[1] else 0.0
    if max(a_spread, b_spread) > bound:
        several = len(a[3]) > 1 and len(b[3]) > 1
        if several and all(sign * (vb - va) < 0 for va in a[3] for vb in b[3]):
            return "better"
        return "unresolved"
    worse_by = sign * (b[1] - a[1]) / abs(a[1]) if a[1] else 0.0
    return "worse" if worse_by > bound else "within"


def compare(a_path: Path, b_path: Path, spec: dict) -> Tuple[List[tuple], bool]:
    """Rows ``(workload, metric, unit, a, b, flag)`` and whether any is worse."""
    a_runs, b_runs = load_runs(a_path), load_runs(b_path)
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    rows, any_worse = [], False
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in a_runs or workload not in b_runs:
            continue
        for name in [*bounded, *EXACT, *layers]:
            a = side(a_runs[workload], name)
            b = side(b_runs[workload], name)
            if a is None or b is None:
                continue
            if name in bounded:
                metric = bounded[name]
                unit, flag = metric["unit"], verdict(a, b, metric["better"], metric["bound"])
            elif name in EXACT:
                unit, flag = "fraction", verdict(a, b, EXACT[name], 0.0)
            else:
                unit, flag = layers[name]["unit"], "-"
            any_worse |= flag == "worse"
            rows.append((workload, name, unit, a, b, flag))
    return rows, any_worse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path)
    parser.add_argument("candidate", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, any_worse = compare(args.baseline, args.candidate, spec)
    print(f"{'workload':<14} {'metric':<26} {'unit':<10} "
          f"{'A q1 / median / q3':<34} {'B q1 / median / q3':<34} flag")
    for workload, name, unit, a, b, flag in rows:
        print(
            f"{workload:<14} {name:<26} {unit:<10} "
            f"{a[0]:>10.5g} {a[1]:>10.5g} {a[2]:>10.5g}   "
            f"{b[0]:>10.5g} {b[1]:>10.5g} {b[2]:>10.5g}   {flag}"
        )
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
