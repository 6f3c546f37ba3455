"""Spans around the calls into each serve layer, for ``--trace`` runs.

A :class:`Tracer` patches the layer boundaries listed in
:func:`serve_layers` at class (or module) level for the duration of a
traced run.  Each wrapped call records a span: name, start, end, parent
span and a sequence number.  Per-packet layers carry the seq of the
packet last pulled from the source.  Calls that serve a batch carry the
batch's first seq, so spans of one batch share it.  Self time, a span's
duration minus the time its child spans cover, is summed per layer as
spans close.  Spans stay in memory (up to :data:`SPAN_CAP` per tracer)
until :func:`write_jsonl` writes them at exit.

A boundary that no longer exists (a renamed method) is skipped and
listed in :attr:`Tracer.missing`; the run goes on with that layer's
time folded into its caller.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import json
import time
from typing import Callable, Iterable, List, Optional, Tuple

from repro import obs
from repro.dataplane import GatewayController, Switch
from repro.net.packet import Packet
from repro.serve import AdaptiveBatcher, Batch, BoundedQueue, Shard, ShardSet, StreamingGateway
import repro.serve.gateway as gateway_module

from measure import SwapHook, patched

#: Spans kept in memory per tracer; self times and counts cover all.
SPAN_CAP = 65_536
#: Layers whose individual call durations are kept (few calls each).
TIMED_CALLS = ("install", "deploy", "compile")


def _batch_seq(args, kwargs):
    seqs = kwargs.get("seqs")
    return seqs[0] if seqs else None


def serve_layers() -> List[Tuple[str, object, str, Optional[Callable]]]:
    """``(layer, owner, attribute, seq_of)`` for every traced boundary."""
    return [
        ("gateway", StreamingGateway, "run", None),
        ("flow_hash", gateway_module, "flow_shard", None),
        ("batcher", AdaptiveBatcher, "add", lambda a, k: a[2]),
        ("batcher", AdaptiveBatcher, "flush_due", None),
        ("batcher", AdaptiveBatcher, "drain", None),
        ("batcher", Batch, "waits", lambda a, k: a[0].indices[0]),
        ("queue", BoundedQueue, "offer", None),
        ("queue", BoundedQueue, "pop", None),
        ("queue", BoundedQueue, "shed_tail", None),
        ("verdict_build", Switch, "process_batch", _batch_seq),
        ("key_extract", Packet, "batch_keys", None),
        ("classify", Switch, "classify_arrays", _batch_seq),
        ("recording", Switch, "_record_batch", None),
        ("recording", obs.FlightRecorder, "add", None),
        ("recording", obs.FlightRecorder, "note_sampled_out", None),
        ("obs", obs.Counter, "inc", None),
        ("obs", obs.Gauge, "set", None),
        ("obs", obs.Gauge, "inc", None),
        ("obs", obs.Histogram, "observe", None),
        ("accounting", Shard, "count_verdicts", None),
        ("install", ShardSet, "install", None),
        ("hook", SwapHook, "__call__", None),
        ("alerts", obs.AlertEngine, "evaluate", None),
        ("alerts", obs.AlertEngine, "finalize", None),
    ]


def setup_layers() -> List[Tuple[str, object, str, Optional[Callable]]]:
    return [
        ("deploy", GatewayController, "deploy", None),
        ("compile", Switch, "compile", None),
    ]


class Tracer:
    """In-memory span recorder with per-layer self time."""

    def __init__(self, phase: str, origin: float):
        self.phase = phase
        self.origin = origin
        self.durations = collections.defaultdict(list)
        self.spans: List[tuple] = []
        self.missing: set = set()
        self.seq = 0
        self._stack: List[list] = []
        self._ids = itertools.count().__next__
        self._totals: dict = {}   # layer -> [self seconds, calls]

    @property
    def self_seconds(self) -> collections.Counter:
        return collections.Counter({layer: t[0] for layer, t in self._totals.items()})

    @property
    def calls(self) -> collections.Counter:
        return collections.Counter({layer: t[1] for layer, t in self._totals.items()})

    def wrap(self, layer: str, original: Callable, seq_of: Optional[Callable] = None):
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        next_id = self._ids
        totals = self._totals.setdefault(layer, [0.0, 0])
        durations = self.durations[layer] if layer in TIMED_CALLS else None

        def traced(*args, **kwargs):
            if seq_of is not None:
                seq = seq_of(args, kwargs)
                if seq is not None:
                    self.seq = seq
            frame = [0.0, next_id()]
            stack.append(frame)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                totals[0] += duration - frame[0]
                totals[1] += 1
                if durations is not None:
                    durations.append(duration)
                if stack:
                    parent = stack[-1]
                    parent[0] += duration
                    parent = parent[1]
                else:
                    parent = -1
                if len(spans) < SPAN_CAP:
                    spans.append((frame[1], layer, start, end, parent, self.seq))

        return traced

    @contextlib.contextmanager
    def installed(self, layers):
        """Patch every boundary in ``layers`` for the scope."""
        with contextlib.ExitStack() as scope:
            for layer, owner, attr, seq_of in layers:
                if not hasattr(owner, attr):
                    self.missing.add(f"{getattr(owner, '__name__', owner)}.{attr}")
                    continue
                scope.enter_context(
                    patched(
                        owner, attr,
                        lambda original, layer=layer, seq_of=seq_of: self.wrap(
                            layer, original, seq_of
                        ),
                    )
                )
            yield self

    def source(self, packets: Iterable) -> "_TracedSource":
        """Wrap a packet source so each pull is a ``source`` span."""
        return _TracedSource(self, packets)

    def us_per(self, layer: str, count: int) -> float:
        return 1e6 * self._totals.get(layer, [0.0])[0] / count if count else 0.0


class _TracedSource:
    def __init__(self, tracer: Tracer, packets: Iterable):
        self._tracer = tracer
        self._pull = tracer.wrap("source", iter(packets).__next__)
        self._count = 0

    def __iter__(self):
        return self

    def __next__(self):
        self._tracer.seq = self._count
        self._count += 1
        return self._pull()


def write_jsonl(tracers: Iterable[Tracer], path) -> int:
    """Write every kept span as one JSON object per line; returns the count."""
    written = 0
    with open(path, "w", encoding="utf-8") as handle:
        for tracer in tracers:
            for span_id, name, start, end, parent, seq in tracer.spans:
                handle.write(
                    json.dumps(
                        {
                            "phase": tracer.phase,
                            "id": span_id,
                            "name": name,
                            "start": start - tracer.origin,
                            "end": end - tracer.origin,
                            "parent": parent,
                            "seq": seq,
                        }
                    )
                    + "\n"
                )
                written += 1
    return written
