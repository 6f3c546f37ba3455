"""Registry snapshot exporters: JSONL, Prometheus text, human table.

A *snapshot* is the plain-dict view produced by
:meth:`repro.obs.registry.Registry.snapshot` —
``{"metrics": [{name, type, labels, unit, help, ...}, ...]}`` — and is
the only thing exporters consume, so a snapshot saved in one process
(e.g. by ``repro stats --save``) renders identically in
another (``repro stats --snapshot``).

Formats:

* **JSONL** — one JSON object per metric per line; machine-diffable,
  append-friendly, round-trips losslessly (:func:`from_jsonl`).
* **Prometheus text exposition** — ``# HELP``/``# TYPE`` blocks with
  cumulative ``_bucket{le=...}`` histogram series, scrape-able by any
  Prometheus-compatible collector.
* **table** — aligned text for terminals (``repro stats``).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Union

__all__ = [
    "to_jsonl",
    "from_jsonl",
    "write_jsonl",
    "read_jsonl",
    "to_prometheus",
    "render_table",
]

Snapshot = Dict[str, object]


def to_jsonl(snapshot: Snapshot) -> str:
    """One compact JSON object per metric, one per line."""
    lines = [
        json.dumps(metric, sort_keys=True, separators=(",", ":"))
        for metric in snapshot["metrics"]
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def from_jsonl(text: str) -> Snapshot:
    """Inverse of :func:`to_jsonl`."""
    metrics = [
        json.loads(line) for line in text.splitlines() if line.strip()
    ]
    return {"metrics": metrics}


def write_jsonl(snapshot: Snapshot, path: Union[str, Path]) -> Path:
    """Write a snapshot to ``path``; returns the path."""
    path = Path(path)
    path.write_text(to_jsonl(snapshot), encoding="utf-8")
    return path


def read_jsonl(path: Union[str, Path]) -> Snapshot:
    """Load a snapshot previously written by :func:`write_jsonl`."""
    return from_jsonl(Path(path).read_text(encoding="utf-8"))


def _prom_name(name: str) -> str:
    """Sanitise a metric name to the Prometheus charset."""
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def _prom_escape_label(value: str) -> str:
    """Escape a label *value* per the 0.0.4 text format.

    Inside label-value double quotes, backslash, the quote itself, and
    newline must be escaped (in that order — backslash first, or the
    other escapes get double-escaped).
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_escape_help(text: str) -> str:
    """Escape ``# HELP`` text (backslash and newline only, per 0.0.4)."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _prom_labels(labels: Dict[str, str], extra: str = "") -> str:
    parts = [
        f'{_prom_name(k)}="{_prom_escape_label(v)}"'
        for k, v in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _fmt(value: float) -> str:
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value) if isinstance(value, float) else str(value)


def to_prometheus(snapshot: Snapshot) -> str:
    """Prometheus text exposition format (version 0.0.4)."""
    by_name: Dict[str, List[dict]] = {}
    for metric in snapshot["metrics"]:
        by_name.setdefault(metric["name"], []).append(metric)
    out: List[str] = []
    for name in sorted(by_name):
        series = by_name[name]
        kind = series[0]["type"]
        prom = _prom_name(name)
        help_text = _prom_escape_help(series[0].get("help") or name)
        out.append(f"# HELP {prom} {help_text}")
        out.append(f"# TYPE {prom} {kind}")
        for metric in series:
            labels = metric.get("labels", {})
            if kind == "histogram":
                cumulative = 0
                for edge, count in zip(metric["buckets"], metric["counts"]):
                    cumulative += count
                    le = _prom_labels(labels, f'le="{_fmt(float(edge))}"')
                    out.append(f"{prom}_bucket{le} {cumulative}")
                cumulative += metric["counts"][len(metric["buckets"])]
                le = _prom_labels(labels, 'le="+Inf"')
                out.append(f"{prom}_bucket{le} {cumulative}")
                out.append(
                    f"{prom}_sum{_prom_labels(labels)} {_fmt(metric['sum'])}"
                )
                out.append(
                    f"{prom}_count{_prom_labels(labels)} {metric['count']}"
                )
            else:
                out.append(
                    f"{prom}{_prom_labels(labels)} {_fmt(metric['value'])}"
                )
    return "\n".join(out) + ("\n" if out else "")


def render_table(snapshot: Snapshot) -> str:
    """Aligned human-readable dump, one row per metric series."""
    rows: List[tuple] = []
    for metric in snapshot["metrics"]:
        labels = ",".join(
            f"{k}={v}" for k, v in sorted(metric.get("labels", {}).items())
        )
        if metric["type"] == "histogram":
            count = metric["count"]
            mean = metric["sum"] / count if count else 0.0
            value = f"count={count} sum={metric['sum']:.6g} mean={mean:.6g}"
        else:
            raw = metric["value"]
            value = f"{raw:.6g}" if isinstance(raw, float) else str(raw)
        unit = metric.get("unit", "")
        rows.append((metric["name"], metric["type"], labels, value, unit))
    if not rows:
        return "(no metrics recorded)"
    headers = ("metric", "type", "labels", "value", "unit")
    widths = [
        max(len(headers[i]), *(len(str(r[i])) for r in rows))
        for i in range(len(headers))
    ]
    def line(cells):
        return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths)).rstrip()

    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return "\n".join(out)
