"""Process-wide instrument registry with a near-zero-cost disabled mode.

One :class:`Registry` owns every instrument in a process (the analogue
of a P4 target's counter/register address space).  Code asks the
registry for a typed instrument by ``(name, labels)``; repeated asks
return the same object, so call sites can be stateless.  A *disabled*
registry hands back the shared no-op singletons instead — instrumented
code pays one method call on an empty body, which keeps hot loops
within the ≤5 % overhead budget the perf guard in
``tests/test_obs.py`` enforces.

Enablement is decided once per registry from the ``REPRO_OBS``
environment variable (off unless set to a truthy value — hot paths stay
un-taxed by default) or explicitly via ``Registry(enabled=True)``.  The
module-level default registry can be swapped (:func:`set_registry`) or
scoped (:func:`use_registry`) so tests and the ``repro stats`` CLI get
isolated, enabled registries without touching the environment.

A count some object already keeps is not pushed a second time: the
object registers a record with :meth:`Registry.track`, and snapshots
read its :class:`Series` (the Prometheus collector pattern).
"""

from __future__ import annotations

import os
import threading
import weakref
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.instruments import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_SPAN,
    Counter,
    Gauge,
    Histogram,
    Labels,
    Span,
)

__all__ = [
    "Registry",
    "Series",
    "registry",
    "set_registry",
    "use_registry",
    "generation",
    "env_enabled",
    "enabled",
]

#: Environment switch.  Unset / "0" / "false" / "off" ⇒ disabled.
ENV_VAR = "REPRO_OBS"

_FALSY = ("", "0", "false", "off", "no")


def env_enabled() -> bool:
    """Whether ``REPRO_OBS`` asks for observability (default: off)."""
    return os.environ.get(ENV_VAR, "0").strip().lower() not in _FALSY


def _freeze_labels(labels: Optional[Dict[str, str]]) -> Labels:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Series:
    """A counter whose value is ``read(record)`` at snapshot time."""

    def __init__(self, name: str, read: Callable, labels=None, *, unit="", help=""):
        self.name, self.read, self.unit, self.help = name, read, unit, help
        self.key = (name, _freeze_labels(labels))


def _add_counts(values: Dict, tracked: tuple) -> None:
    """Add a tracked record's counts since its baseline into ``values``."""
    record, series, __, baseline = tracked
    for s, base in zip(series, baseline):
        values[s.key] = values.get(s.key, 0) + s.read(record) - base


class Registry:
    """A namespace of typed instruments plus the span stack.

    Args:
        enabled: ``None`` reads ``REPRO_OBS``; ``True``/``False`` force it.
    """

    def __init__(self, *, enabled: Optional[bool] = None):
        self.enabled = env_enabled() if enabled is None else bool(enabled)
        self._instruments: Dict[Tuple[str, Labels], object] = {}
        self._meta: Dict[str, Dict[str, str]] = {}  # name -> kind/unit/help
        #: ``id(record) -> (record, series, owner weakref, baseline)``.
        self._tracked: Dict[int, tuple] = {}
        #: Counts of retired records, by series key.
        self._totals: Dict[Tuple[str, Labels], float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- instrument factories ----------------------------------------------

    def _declare(self, kind: str, name: str, unit: str, help: str) -> None:
        meta = self._meta.setdefault(
            name, {"kind": kind, "unit": unit, "help": help}
        )
        if meta["kind"] != kind:
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{meta['kind']}, not {kind}"
            )

    def _get(self, kind: str, name: str, labels, unit: str, help: str, factory):
        key = (name, _freeze_labels(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(key)
                if instrument is None:
                    self._declare(kind, name, unit, help)
                    instrument = self._instruments[key] = factory(key[1])
        if instrument.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{instrument.kind}, not {kind}"
            )
        return instrument

    def counter(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        *,
        unit: str = "",
        help: str = "",
    ) -> Counter:
        """Get-or-create a monotonic counter (no-op when disabled)."""
        if not self.enabled:
            return NULL_COUNTER
        return self._get(
            "counter", name, labels, unit, help, lambda l: Counter(name, l)
        )

    def gauge(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        *,
        unit: str = "",
        help: str = "",
    ) -> Gauge:
        """Get-or-create an up/down gauge (no-op when disabled)."""
        if not self.enabled:
            return NULL_GAUGE
        return self._get(
            "gauge", name, labels, unit, help, lambda l: Gauge(name, l)
        )

    def histogram(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        *,
        buckets: Optional[Sequence[float]] = None,
        unit: str = "",
        help: str = "",
    ) -> Histogram:
        """Get-or-create a fixed-bucket histogram (no-op when disabled)."""
        if not self.enabled:
            return NULL_HISTOGRAM
        return self._get(
            "histogram",
            name,
            labels,
            unit,
            help,
            lambda l: Histogram(name, l, buckets=buckets),
        )

    def timer(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        *,
        unit: str = "s",
        help: str = "",
    ):
        """``with registry.timer("x_seconds"): ...`` — histogram shorthand."""
        return self.histogram(name, labels, unit=unit, help=help).time()

    def span(self, name: str):
        """A nestable named timing scope; see :class:`~.instruments.Span`."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name)

    # -- collected counters -------------------------------------------------

    def track(self, record, series: Sequence[Series], *, owner=None) -> None:
        """Read ``series`` off ``record`` at every snapshot until retired.

        Counts start from the record's values now; tracking it again
        changes nothing.  ``record`` is retired once ``owner`` (held by
        weak reference) is garbage collected.
        """
        if not self.enabled:
            return
        with self._lock:
            self._retire_orphans()
            if id(record) not in self._tracked:
                for s in series:
                    self._declare("counter", s.name, s.unit, s.help)
                self._tracked[id(record)] = (
                    record, series, owner if owner is None else weakref.ref(owner),
                    [s.read(record) for s in series],
                )

    def retire(self, record) -> None:
        """Stop reading ``record``; the snapshot keeps its counts so far."""
        with self._lock:
            tracked = self._tracked.pop(id(record), None)
            if tracked is not None:
                _add_counts(self._totals, tracked)

    def _retire_orphans(self) -> None:
        for key, (__, __, owner, __) in list(self._tracked.items()):
            if owner is not None and owner() is None:
                _add_counts(self._totals, self._tracked.pop(key))

    # -- span support -------------------------------------------------------

    def _span_stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span_path(self) -> str:
        """The active nested span path ("" outside any span)."""
        return "/".join(self._span_stack())

    # -- introspection ------------------------------------------------------

    def instruments(self) -> List[object]:
        """Every instrument, sorted by (name, labels) for stable output.

        Collected series appear as :class:`Counter` objects holding
        their current values.
        """
        with self._lock:
            self._retire_orphans()
            collected = dict(self._totals)
            for tracked in self._tracked.values():
                _add_counts(collected, tracked)
        merged = dict(self._instruments)
        for key, value in collected.items():
            counter = merged[key] = Counter(*key)
            counter.value = value
        return [merged[key] for key in sorted(merged)]

    def snapshot(self) -> Dict[str, object]:
        """Serialisable view of every instrument (see obs/export.py)."""
        metrics: List[Dict[str, object]] = []
        for instrument in self.instruments():
            meta = self._meta.get(instrument.name, {})
            entry: Dict[str, object] = {
                "name": instrument.name,
                "type": meta.get("kind", instrument.kind),
                "labels": instrument.label_dict(),
                "unit": meta.get("unit", ""),
                "help": meta.get("help", ""),
            }
            if isinstance(instrument, Histogram):
                entry["buckets"] = list(instrument.edges)
                entry["counts"] = list(instrument.counts)
                entry["sum"] = instrument.sum
                entry["count"] = instrument.count
            else:
                entry["value"] = instrument.value
            metrics.append(entry)
        return {"metrics": metrics}

    def reset(self) -> None:
        """Zero every count (test isolation helper).

        Tracked records count on from their current values; objects
        caching instrument handles re-capture them on their next call.
        """
        global _generation
        with self._lock:
            self._instruments.clear()
            self._meta.clear()
            self._totals.clear()
            for record, series, __, baseline in self._tracked.values():
                for s in series:
                    self._declare("counter", s.name, s.unit, s.help)
                baseline[:] = [s.read(record) for s in series]
        with _default_lock:
            _generation += 1


_default: Optional[Registry] = None
_default_lock = threading.Lock()

#: Bumped on every :func:`set_registry` and :meth:`Registry.reset`.
#: Long-lived instrumented objects (tables, switches) cache their
#: instrument handles and compare this integer at hot-path entry points —
#: an unchanged generation means the cached handles are still current,
#: so the steady-state cost of lazy resolution is one int compare per call.
_generation = 0


def generation() -> int:
    """Monotonic counter identifying the current default registry."""
    return _generation


def registry() -> Registry:
    """The process-wide default registry (created lazily from the env)."""
    global _default
    if _default is None:
        with _default_lock:
            if _default is None:
                _default = Registry()
    return _default


def set_registry(new: Registry) -> Registry:
    """Swap the default registry; returns the previous one.

    Instrumented objects resolve the active default registry lazily —
    at call time for short-lived helpers (cache, online) and at run
    entry for the dataplane objects (tables, switches), which re-capture
    their instruments whenever the registry generation changes.  Swapping
    mid-run therefore takes effect on the next lookup/process call; no
    reconstruction is needed.
    """
    global _default, _generation
    with _default_lock:
        old = _default if _default is not None else Registry()
        _default = new
        _generation += 1
    return old


@contextmanager
def use_registry(new: Registry):
    """Scoped :func:`set_registry` — restores the previous default."""
    old = set_registry(new)
    try:
        yield new
    finally:
        set_registry(old)


def enabled() -> bool:
    """Whether the *current default* registry records anything."""
    return registry().enabled
