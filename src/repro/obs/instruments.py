"""Typed metric instruments: Counter, Gauge, Histogram, Timer, Span.

Instruments are plain Python objects with no locks on the hot methods —
the repo is single-process/single-thread on the data path, and a lost
increment under hypothetical races costs a count, not correctness.
Every instrument kind has a no-op twin (:data:`NULL_COUNTER` & co.)
returned by a disabled :class:`repro.obs.registry.Registry`, so
instrumented code never branches on "is observability on" itself: it
calls the same methods either way, and the disabled call is one
attribute lookup plus an empty method body.

The histogram uses *fixed log-spaced buckets* (geometric upper edges)
because the quantities observed here — span durations from microseconds
to minutes, batch sizes from 1 to 10⁶ — range over many decades and a
linear grid would waste all its resolution on one of them.
"""

from __future__ import annotations

import bisect
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "Span",
    "NullInstrument",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_SPAN",
    "default_buckets",
]

Labels = Tuple[Tuple[str, str], ...]


def default_buckets(
    lo: float = 1e-6, hi: float = 1e3, per_decade: int = 3
) -> Tuple[float, ...]:
    """Geometric bucket upper edges covering ``[lo, hi]``.

    With the defaults: 1 µs … 1000 s at three edges per decade
    (1, ~2.15, ~4.64 × 10ᵏ) — 28 buckets, enough resolution to tell a
    100 µs batch from a 1 ms one without per-metric tuning.  Values
    above the last edge land in the implicit +Inf overflow bucket.
    """
    if not 0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    if per_decade < 1:
        raise ValueError("per_decade must be >= 1")
    edges: List[float] = []
    import math

    k = math.floor(math.log10(lo))
    while True:
        for i in range(per_decade):
            edge = 10.0**k * 10.0 ** (i / per_decade)
            if edge > hi * (1 + 1e-12):
                return tuple(round(e, 12) for e in edges)
            if edge >= lo * (1 - 1e-12):
                edges.append(edge)
        k += 1


class _Instrument:
    """Shared identity: metric name + frozen label pairs."""

    kind = "abstract"

    def __init__(self, name: str, labels: Labels = ()):
        self.name = name
        self.labels = labels

    def label_dict(self) -> Dict[str, str]:
        return dict(self.labels)


class Counter(_Instrument):
    """A monotonically increasing count (P4 ``counter`` / direct counter)."""

    kind = "counter"

    def __init__(self, name: str, labels: Labels = ()):
        super().__init__(name, labels)
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount


class Gauge(_Instrument):
    """A value that can go up and down (table occupancy, drift score)."""

    kind = "gauge"

    def __init__(self, name: str, labels: Labels = ()):
        super().__init__(name, labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram(_Instrument):
    """Fixed-bucket distribution of observed values.

    ``edges`` are *upper* bucket bounds (value ≤ edge ⇒ that bucket,
    matching Prometheus ``le`` semantics); one extra overflow bucket
    catches values above the last edge.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Labels = (),
        buckets: Optional[Sequence[float]] = None,
    ):
        super().__init__(name, labels)
        edges = tuple(buckets) if buckets is not None else default_buckets()
        if not edges or list(edges) != sorted(edges):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.edges: Tuple[float, ...] = edges
        self._edge_array = np.asarray(edges, dtype=np.float64)
        self.counts: List[int] = [0] * (len(edges) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect.bisect_left(self.edges, value)] += 1
        self.sum += value
        self.count += 1

    def observe_many(self, values) -> None:
        """:meth:`observe` each of ``values`` in order, in one call.

        Counts, ``count`` and ``sum`` end up exactly as the per-value
        loop leaves them; the sum is accumulated left to right from the
        current total (``np.add.accumulate``, not a pairwise sum), so it
        is bit-identical too.  ``nan`` lands in the *first* bucket, as
        :func:`bisect.bisect_left` puts it (every comparison with
        ``nan`` is false), not at the end where ``np.searchsorted``
        sorts it; the sum then becomes ``nan``, as it would per value.
        """
        values = np.asarray(values, dtype=np.float64).ravel()
        if not values.size:
            return
        slots = np.searchsorted(self._edge_array, values, side="left")
        slots[np.isnan(values)] = 0
        for slot, hits in enumerate(
            np.bincount(slots, minlength=len(self.counts)).tolist()
        ):
            if hits:
                self.counts[slot] += hits
        # Python float addition overflows to inf and makes nan silently.
        with np.errstate(over="ignore", invalid="ignore"):
            self.sum = float(
                np.add.accumulate(np.concatenate(([self.sum], values)))[-1]
            )
        self.count += int(values.size)

    def time(self) -> "Timer":
        """Context manager observing elapsed seconds into this histogram."""
        return Timer(self)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class Timer:
    """``with histogram.time(): ...`` — monotonic wall-clock observation."""

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: Histogram):
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._histogram.observe(time.perf_counter() - self._start)


class Span:
    """A named, nestable timing scope.

    Entering pushes the name onto the owning registry's span stack; the
    recorded metric is ``span_seconds{span="outer/inner"}`` so nested
    scopes keep their full path.  Durations come from
    :func:`time.perf_counter` (monotonic, immune to wall-clock steps).
    """

    __slots__ = ("_registry", "name", "path", "_start")

    def __init__(self, registry, name: str):
        self._registry = registry
        self.name = name
        self.path = name
        self._start = 0.0

    def __enter__(self) -> "Span":
        stack = self._registry._span_stack()
        stack.append(self.name)
        self.path = "/".join(stack)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self._start
        stack = self._registry._span_stack()
        if stack and stack[-1] == self.name:
            stack.pop()
        self._registry.histogram(
            "span_seconds",
            labels={"span": self.path},
            unit="s",
            help="wall-clock duration of named code spans",
        ).observe(elapsed)


class NullInstrument:
    """Does nothing, cheaply — every instrument method is a no-op.

    One shared instance per kind; also usable as a context manager so it
    can stand in for :class:`Timer` and :class:`Span`.
    """

    __slots__ = ()
    name = "<null>"
    labels: Labels = ()
    value = 0
    edges: Tuple[float, ...] = ()
    counts: List[int] = []
    sum = 0.0
    count = 0
    path = "<null>"

    def inc(self, amount=1) -> None:
        pass

    def dec(self, amount=1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass

    def observe_many(self, values) -> None:
        pass

    def time(self) -> "NullInstrument":
        return self

    def label_dict(self) -> Dict[str, str]:
        return {}

    def __enter__(self) -> "NullInstrument":
        return self

    def __exit__(self, *exc) -> None:
        pass


NULL_COUNTER = NullInstrument()
NULL_GAUGE = NullInstrument()
NULL_HISTOGRAM = NullInstrument()
NULL_SPAN = NullInstrument()
