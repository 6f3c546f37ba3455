"""Unified telemetry layer: counters, gauges, histograms, timing spans.

The software analogue of what P4 gives a real data plane — per-table
``direct_counter``s, registers, and ingress timestamps — packaged as a
dependency-free metrics/tracing subsystem the whole repo reports
through.  See ``docs/OBSERVABILITY.md`` for the instrument catalogue
and usage guide.

Quick start::

    from repro import obs

    reg = obs.registry()                     # process-wide default
    obs.set_registry(obs.Registry(enabled=True))   # turn recording on

    hits = reg.counter("table_hits_total", {"table": "fw"})
    hits.inc()
    with reg.span("replay"):
        ...                                   # span_seconds{span="replay"}

    print(obs.render_table(reg.snapshot()))

Recording is **off by default** (set ``REPRO_OBS=1`` or install an
enabled registry) and the disabled mode is near-free: instrumented code
receives shared no-op instruments, so hot loops pay one empty method
call.  ``repro stats`` and ``make bench`` enable it for you.

Beyond aggregates, the package carries the *decision provenance* layer:
structured per-packet events (:mod:`repro.obs.events`), the bounded
verdict-biased :class:`FlightRecorder` (:mod:`repro.obs.flight`), and
the declarative SLO :class:`AlertEngine` (:mod:`repro.obs.alerts`) —
see the "Decision provenance" sections of ``docs/OBSERVABILITY.md``.
"""

from repro.obs.alerts import (
    AlertEngine,
    AlertRule,
    default_fleet_alerts,
    default_serve_alerts,
    histogram_quantile,
)
from repro.obs.events import (
    EVENT_KINDS,
    AlertEvent,
    DecisionRecord,
    event_from_dict,
    event_to_dict,
    is_critical,
    read_events,
    write_events,
)
from repro.obs.export import (
    from_jsonl,
    read_jsonl,
    render_table,
    to_jsonl,
    to_prometheus,
    write_jsonl,
)
from repro.obs.flight import FlightRecorder
from repro.obs.instruments import (
    Counter,
    Gauge,
    Histogram,
    NullInstrument,
    Span,
    Timer,
    default_buckets,
)
from repro.obs.registry import (
    ENV_VAR,
    Registry,
    Series,
    enabled,
    env_enabled,
    registry,
    set_registry,
    use_registry,
)

__all__ = [
    "ENV_VAR",
    "EVENT_KINDS",
    "AlertEngine",
    "AlertEvent",
    "AlertRule",
    "Counter",
    "DecisionRecord",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "NullInstrument",
    "Registry",
    "Series",
    "Span",
    "Timer",
    "default_buckets",
    "default_fleet_alerts",
    "default_serve_alerts",
    "enabled",
    "env_enabled",
    "event_from_dict",
    "event_to_dict",
    "from_jsonl",
    "histogram_quantile",
    "is_critical",
    "read_events",
    "read_jsonl",
    "registry",
    "render_table",
    "set_registry",
    "to_jsonl",
    "to_prometheus",
    "use_registry",
    "write_events",
    "write_jsonl",
]
