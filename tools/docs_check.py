#!/usr/bin/env python
"""Markdown link + catalogue linter for the repo's documentation.

Checks every intra-repo link in the Markdown corpus (top-level ``*.md``
plus ``docs/*.md``) and fails on:

* **dead file links** — ``[text](docs/FOO.md)`` where the target file
  does not exist (resolved relative to the linking file, like a
  renderer would);
* **dead anchors** — ``[text](#section)`` or ``[text](FILE.md#section)``
  where no heading in the target file slugifies to ``section``
  (GitHub-style slugification: lowercase, spaces → ``-``, punctuation
  stripped, duplicate slugs suffixed ``-1``, ``-2``, ...);
* **catalogue drift** — every metric registered or collected and every
  span entered in the instrumented sources (``src/repro`` outside the
  obs package), every event kind declared in
  ``src/repro/obs/events.py``, and every alert rule name declared under
  ``src/`` (the fleet alerts included) must appear in
  ``docs/OBSERVABILITY.md``;
* **stale catalogue rows** — every metric a row of a metric table in
  ``docs/OBSERVABILITY.md`` names (the instrument catalogue's
  ``Metric`` tables and the ``Series`` table of "Where counts live")
  must be registered or collected somewhere under ``src/repro``;
* **CLI catalogue drift** — every top-level ``repro`` subcommand
  registered in ``src/repro/cli.py`` must appear in the operator guide
  ``docs/OPERATIONS.md``.

External links (``http(s)://``, ``mailto:``) are deliberately not
fetched — this repo is developed offline — and bare inline-code
mentions of paths are not treated as links.  Links inside fenced code
blocks are ignored.

Usage::

    python tools/docs_check.py        # exit 0 = clean, 1 = dead links
    make docs-check                   # the same, as a build target

``tests/test_docs_links.py`` runs this in tier-1, so a broken link or
catalogue drift fails the normal test suite too.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The documentation corpus: where links are *checked from*.  Any file
#: in the repo can be a link *target*.
DOC_GLOBS = ("*.md", "docs/*.md")

#: ``[text](target)`` inline links; images share the syntax via ``![``.
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: ATX headings (``# ...`` .. ``###### ...``).
_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")

_EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "ftp://")


def doc_files() -> List[Path]:
    files: List[Path] = []
    for pattern in DOC_GLOBS:
        files.extend(sorted(REPO_ROOT.glob(pattern)))
    return files


def strip_code_blocks(text: str) -> str:
    """Blank out fenced code blocks, preserving line numbers."""
    out: List[str] = []
    in_fence = False
    for line in text.splitlines():
        stripped = line.lstrip()
        if stripped.startswith("```") or stripped.startswith("~~~"):
            in_fence = not in_fence
            out.append("")
            continue
        out.append("" if in_fence else line)
    return "\n".join(out)


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading (approximation, ASCII-focused)."""
    # Inline code/emphasis markers render to text before slugification.
    text = re.sub(r"[`*_]", "", heading)
    # Markdown links in headings keep only their text.
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(path: Path, cache: Dict[Path, set]) -> set:
    if path not in cache:
        slugs: Dict[str, int] = {}
        result = set()
        text = strip_code_blocks(path.read_text(encoding="utf-8"))
        for line in text.splitlines():
            match = _HEADING_RE.match(line)
            if not match:
                continue
            slug = github_slug(match.group(2))
            n = slugs.get(slug, 0)
            slugs[slug] = n + 1
            result.add(slug if n == 0 else f"{slug}-{n}")
        cache[path] = result
    return cache[path]


def check_file(path: Path, cache: Dict[Path, set]) -> List[Tuple[int, str, str]]:
    """Return (line, link, problem) triples for every dead link in *path*."""
    problems: List[Tuple[int, str, str]] = []
    text = strip_code_blocks(path.read_text(encoding="utf-8"))
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in _LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(_EXTERNAL_PREFIXES):
                continue
            file_part, _, anchor = target.partition("#")
            if file_part:
                resolved = (path.parent / file_part).resolve()
                if not resolved.exists():
                    problems.append((lineno, target, "file not found"))
                    continue
                if not str(resolved).startswith(str(REPO_ROOT)):
                    problems.append((lineno, target, "points outside the repo"))
                    continue
            else:
                resolved = path
            if anchor:
                if resolved.suffix.lower() != ".md":
                    continue  # anchors into non-Markdown targets: skip
                if anchor.lower() not in anchors_of(resolved, cache):
                    problems.append((lineno, target, "anchor not found"))
    return problems


#: ``KIND_X = "x"`` module constants — the event-kind catalogue.
_EVENT_KIND_RE = re.compile(r'^KIND_[A-Z_]+\s*=\s*"([a-z_]+)"', re.M)
#: First (positional ``name``) argument of every ``AlertRule(...)``.
_ALERT_NAME_RE = re.compile(r'AlertRule\(\s*"([a-z0-9_]+)"')
#: Literal first-argument names of instrument registrations and of
#: collected-series declarations (``obs.Series("name", ...)``).
_METRIC_CALL_RE = re.compile(
    r"(?:\.(?:counter|gauge|histogram|timer)|\bSeries)\(\s*[\"']([a-z0-9_]+)[\"']"
)
_SPAN_CALL_RE = re.compile(r"\.span\(\s*[\"']([a-z0-9_./]+)[\"']")

#: Names each scan must see, so a scan that silently matches nothing
#: fails instead of passing.
_SCAN_GUARDS = {
    "event kind": ("decision", "shed", "alert"),
    "alert name": ("shed_rate_high", "fleet_shed_rate_high"),
    "metric": ("switch_packets_total", "fleet_tenants", "corpus_replay_packets_total"),
    "span": ("detector.fit",),
}


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def instrumented_sources() -> List[Path]:
    """Every source that registers metrics or spans.

    The obs package itself is excluded (its docstrings use placeholder
    names); its one real metric, ``span_seconds``, is documented with
    the spans.
    """
    return [
        path
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
        if "obs" not in path.parts
    ]


def registered_names() -> Tuple[set, set]:
    """``(metric names, span names)`` registered or declared in the source."""
    metrics, spans = set(), set()
    for path in instrumented_sources():
        text = _read(path)
        metrics.update(_METRIC_CALL_RE.findall(text))
        spans.update(_SPAN_CALL_RE.findall(text))
    return metrics, spans


#: First header cell of the metric tables whose rows :func:`stale_rows` checks.
_METRIC_TABLE_HEADERS = ("Metric", "Series")
#: A backticked metric name in a row's first cell, labels (``{...}``) dropped.
_ROW_METRIC_RE = re.compile(r"`([a-z][a-z0-9_]*)(?:\{[^`]*\})?`")


def catalogue_rows(doc: str) -> List[Tuple[int, str]]:
    """``(line, metric name)`` for each name a metric-table row lists first."""
    rows: List[Tuple[int, str]] = []
    header = None  # first header cell of the table being read
    for lineno, line in enumerate(strip_code_blocks(doc).splitlines(), start=1):
        if not line.startswith("|"):
            header = None
            continue
        first = line.strip("|").split("|")[0].strip()
        if header is None:
            header = first
        elif header in _METRIC_TABLE_HEADERS:
            rows.extend((lineno, name) for name in _ROW_METRIC_RE.findall(first))
    return rows


def stale_rows(doc: str, metrics: set) -> List[Tuple[int, str]]:
    """The catalogue rows of ``doc`` naming a metric not in ``metrics``."""
    return [(lineno, name) for lineno, name in catalogue_rows(doc) if name not in metrics]


def all_metric_names() -> set:
    """Metric names registered or collected anywhere under ``src/repro``.

    Unlike :func:`registered_names`, the obs package counts: its own
    series (``span_seconds``, ``alerts_fired_total``) have rows too.
    """
    names = set()
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        names.update(_METRIC_CALL_RE.findall(_read(path)))
    return names


def declared_events_and_alerts() -> Tuple[set, set]:
    """``(event kinds, alert rule names)`` declared in the source."""
    kinds = set(
        _EVENT_KIND_RE.findall(_read(REPO_ROOT / "src" / "repro" / "obs" / "events.py"))
    )
    alerts = set()
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        alerts.update(_ALERT_NAME_RE.findall(_read(path)))
    return kinds, alerts


def undocumented(names) -> List[str]:
    """The names that ``docs/OBSERVABILITY.md`` never mentions."""
    doc = _read(REPO_ROOT / "docs" / "OBSERVABILITY.md")
    return sorted(name for name in names if name not in doc)


def catalogue_problems() -> List[str]:
    """Metrics, spans, event kinds and alert names missing from the doc."""
    metrics, spans = registered_names()
    kinds, alerts = declared_events_and_alerts()
    found = {"event kind": kinds, "alert name": alerts, "metric": metrics, "span": spans}
    problems: List[str] = []
    for what, names in found.items():
        for name in _SCAN_GUARDS[what]:
            if name not in names:
                problems.append(f"{what} scan did not find {name!r}")
        for name in undocumented(names):
            problems.append(f"{what} {name!r} missing from OBSERVABILITY.md")
    doc = _read(REPO_ROOT / "docs" / "OBSERVABILITY.md")
    if not catalogue_rows(doc):
        problems.append("catalogue row scan found no metric rows")
    for lineno, name in stale_rows(doc, all_metric_names()):
        problems.append(f"line {lineno}: row for {name!r}, which no source registers")
    return problems


#: Top-level subcommand registrations in cli.py.  Nested sub-subparsers
#: (``rsub.add_parser``) are deliberately not matched — the operator
#: guide documents them under their parent command.
_CLI_COMMAND_RE = re.compile(r'\bsub\.add_parser\(\s*"([a-z0-9]+)"')


def cli_catalogue_problems() -> List[str]:
    """`repro` subcommands missing from docs/OPERATIONS.md."""
    operations = REPO_ROOT / "docs" / "OPERATIONS.md"
    if not operations.exists():
        return ["docs/OPERATIONS.md does not exist"]
    doc = _read(operations)
    commands = _CLI_COMMAND_RE.findall(_read(REPO_ROOT / "src" / "repro" / "cli.py"))
    problems: List[str] = []
    if "serve" not in commands:
        problems.append("CLI scan found no sub.add_parser registrations")
    for command in sorted(set(commands)):
        if f"repro {command}" not in doc:
            problems.append(
                f"CLI subcommand 'repro {command}' missing from OPERATIONS.md"
            )
    return problems


def main(argv: List[str] | None = None) -> int:
    cache: Dict[Path, set] = {}
    total = 0
    checked = 0
    for path in doc_files():
        checked += 1
        for lineno, target, problem in check_file(path, cache):
            rel = path.relative_to(REPO_ROOT)
            print(f"{rel}:{lineno}: dead link ({problem}): {target}")
            total += 1
    for problem in catalogue_problems():
        print(f"docs/OBSERVABILITY.md: catalogue drift: {problem}")
        total += 1
    for problem in cli_catalogue_problems():
        print(f"docs/OPERATIONS.md: catalogue drift: {problem}")
        total += 1
    if total:
        print(f"docs-check: {total} problem(s) across {checked} file(s)")
        return 1
    print(f"docs-check: OK ({checked} files, no dead links, catalogue current)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
