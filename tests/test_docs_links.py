"""Documentation health checks, run as part of tier-1.

Four guarantees, all checked by ``tools/docs_check.py`` (the same
script ``make docs-check`` runs), whose scanners these tests call:

* every intra-repo Markdown link resolves,
* every metric and span name registered anywhere in the source —
  collected series included — appears in ``docs/OBSERVABILITY.md``, so
  the instrument catalogue cannot silently drift from the code,
* every event kind (``repro/obs/events.py``) and alert rule name
  appears there too, and
* every row of its metric tables names a metric some source
  registers, so a deleted metric cannot leave its row behind.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import docs_check  # noqa: E402


def test_docs_check_passes():
    """`make docs-check` equivalent: no dead links or anchors."""
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "docs_check.py")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, (
        f"docs-check failed:\n{result.stdout}{result.stderr}"
    )


def test_observability_doc_covers_every_registered_name():
    metrics, spans = docs_check.registered_names()

    # The scan must actually see the instrumented code paths.
    assert "switch_packets_total" in metrics
    assert "detector.fit" in spans
    assert not docs_check.undocumented(["span_seconds"])

    undocumented_metrics = docs_check.undocumented(metrics)
    assert not undocumented_metrics, (
        f"metrics registered in code but missing from "
        f"docs/OBSERVABILITY.md: {undocumented_metrics}"
    )
    undocumented_spans = docs_check.undocumented(spans)
    assert not undocumented_spans, (
        f"spans used in code but missing from "
        f"docs/OBSERVABILITY.md: {undocumented_spans}"
    )


def test_observability_doc_covers_events_and_alerts():
    kinds, alerts = docs_check.declared_events_and_alerts()

    # The scans must actually see the declarations they guard.
    assert {"decision", "shed", "alert"} <= kinds
    assert "shed_rate_high" in alerts

    undocumented_kinds = docs_check.undocumented(kinds)
    assert not undocumented_kinds, (
        f"event kinds declared in code but missing from "
        f"docs/OBSERVABILITY.md: {undocumented_kinds}"
    )
    undocumented_alerts = docs_check.undocumented(alerts)
    assert not undocumented_alerts, (
        f"alert rules declared in code but missing from "
        f"docs/OBSERVABILITY.md: {undocumented_alerts}"
    )


def test_stale_catalogue_row_fails():
    """A metric-table row for a metric no source registers is drift too."""
    doc = "\n".join([
        "| Metric | Type | Meaning |",
        "|---|---|---|",
        "| `live_total` | counter | Registered. |",
        "| `ghost_total` | counter | Registered nowhere. |",
        "",
        "| Series | Source | How |",
        "|---|---|---|",
        "| `live_total{shard}`, `gone_seconds`, every histogram | x | pushed |",
        "",
        "| Span | Where | Wraps |",
        "|---|---|---|",
        "| `not_a_metric` | x | Not a metric table. |",
    ])
    assert docs_check.stale_rows(doc, {"live_total"}) == [
        (4, "ghost_total"), (8, "gone_seconds"),
    ]

    real = (REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
    names = {name for __, name in docs_check.catalogue_rows(real)}
    # Both tables are read, the fleet counters included.
    assert {"switch_packets_total", "fleet_tenant_packets_total", "span_seconds"} <= names
    assert not docs_check.stale_rows(real, docs_check.all_metric_names())
