"""On-disk trace corpora: synthesis, streaming replay, endurance soaks.

The corpus subsystem turns the in-memory benchmark traces into
multi-million-packet on-disk workloads with bounded-memory endpoints on
both sides:

* :func:`build_corpus` synthesizes mixed attack/benign corpora to
  chunked pcap files (optionally gzip) plus a deterministic
  ``manifest.json`` — chunk index, per-class counts, sha256 content
  digests — streaming one chunk at a time;
* :class:`CorpusSource` replays a corpus through the serving layer by
  chaining the pcap block reader across chunks, verifying digests in
  flight; on its recorded clock it hands the gateway whole frame
  blocks, with no packet object built per record;
* :func:`replay_corpus` + :class:`TimedSwapHook` make up the endurance
  harness behind ``repro corpus replay`` and E20 — sustained
  throughput, shed accounting, RSS ceiling, and drift→retrain→swap
  latency over long runs.
"""

from repro.corpus.build import (
    ChunkMeta,
    CorpusError,
    CorpusManifest,
    CorpusSpec,
    MANIFEST_FORMAT,
    MANIFEST_NAME,
    build_corpus,
    family_registry,
    load_manifest,
)
from repro.corpus.replay import (
    ReplayReport,
    TimedSwapHook,
    replay_corpus,
    rss_bytes,
)
from repro.corpus.source import CorpusSource

__all__ = [
    "ChunkMeta",
    "CorpusError",
    "CorpusManifest",
    "CorpusSpec",
    "CorpusSource",
    "MANIFEST_FORMAT",
    "MANIFEST_NAME",
    "ReplayReport",
    "TimedSwapHook",
    "build_corpus",
    "family_registry",
    "load_manifest",
    "replay_corpus",
    "rss_bytes",
]
