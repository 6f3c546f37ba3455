"""Streaming gateway service: long-lived serving on top of the pipeline.

Everything else in the repo replays traces *offline* — one call, one
list of packets, one list of verdicts.  A deployed gateway firewall is
the opposite: a long-lived element fed by an unbounded packet stream at
a rate it does not control.  This package supplies that missing layer:

* :mod:`repro.serve.sources` — pluggable packet sources: a seeded
  synthetic stream with configurable rate/burstiness and a streaming
  pcap reader (never materialises the file); a packet list is the
  in-memory source;
* :mod:`repro.serve.batcher` — an adaptive batcher that accumulates
  packets under a max-latency / max-batch policy so live load still hits
  the vectorised :meth:`~repro.dataplane.switch.Switch.process_batch`
  path;
* :mod:`repro.serve.shard` — N switch instances behind a consistent
  flow hash (stateful tables stay per-flow correct) with per-shard
  bounded queues;
* :mod:`repro.serve.gateway` — the :class:`StreamingGateway` event loop
  tying those together with backpressure (explicit drop accounting,
  fail-open vs. fail-closed), graceful drain, and full :mod:`repro.obs`
  wiring;
* :mod:`repro.serve.workers` — the executors that classify serviced
  batches behind one submit/poll/wait interface: inline, or one worker
  process per shard over shared-memory rings;
* :mod:`repro.serve.hooks` — the drift→retrain→atomic-rule-swap hook
  that connects :class:`repro.core.online.OnlineGateway` to the live
  loop.

Time model: *stream time* is carried by packet timestamps (the arrival
process), so queueing, batching deadlines and shedding are exact and
deterministic, while the classification work itself is real —
wall-clock soak throughput is measured against the same
``process_batch`` path the offline harness uses.  ``repro serve`` runs
a timed soak from the command line; see docs/ARCHITECTURE.md (Serving)
and EXPERIMENTS.md (E17).
"""

from repro.serve.batcher import AdaptiveBatcher, Batch
from repro.serve.gateway import (
    FAIL_CLOSED,
    FAIL_OPEN,
    ServeConfig,
    SoakResult,
    StreamingGateway,
)
from repro.serve.hooks import DriftRetrainHook
from repro.serve.shard import BoundedQueue, Shard, ShardSet, flow_shard
from repro.serve.workers import InlineExecutor, ProcessExecutor, WorkerDiedError
from repro.serve.sources import PcapSource, SyntheticSource, retime

__all__ = [
    "AdaptiveBatcher",
    "Batch",
    "BoundedQueue",
    "DriftRetrainHook",
    "FAIL_CLOSED",
    "FAIL_OPEN",
    "InlineExecutor",
    "PcapSource",
    "ProcessExecutor",
    "ServeConfig",
    "Shard",
    "WorkerDiedError",
    "ShardSet",
    "SoakResult",
    "StreamingGateway",
    "SyntheticSource",
    "flow_shard",
    "retime",
]
