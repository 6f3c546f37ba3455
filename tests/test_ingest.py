"""A capture's own frame blocks serve exactly as its packets do.

A source that offers frame blocks (``PcapSource`` on its recorded
clock) hands the gateway the blocks it read; the same capture read as a
live packet iterator is packed into blocks by the gateway as it reads
it (``StreamingGateway._pack``).  Every golden scenario, written to a
pcap, must produce equal results both ways, on both executors: every
field :func:`test_gateway_golden.observe` returns, the packets the
retrain hook receives, and the flight-recorder dump.

Every other source object offers blocks too: a packet list or tuple
is cut into large blocks of its own packets, and a re-timed
``PcapSource`` or ``CorpusSource`` into large blocks of its re-timed
packets.  None of them reaches ``_pack``, and each must serve exactly
as the same packets read live.
"""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.corpus import CorpusSource, CorpusSpec, build_corpus
from repro.eval.harness import synthetic_firewall_ruleset
from repro.net.frames import PACK_ROWS, FrameBlock
from repro.net.packet import Packet
from repro.net.pcap import iter_pcap_blocks, read_pcap, write_pcap
from repro.obs import AlertEngine, FlightRecorder, default_serve_alerts
from repro.serve import PcapSource, ServeConfig, StreamingGateway, SyntheticSource
from repro.serve.shard import flow_shard, flow_shards
from repro.serve.sources import retime

from tests.test_gateway_golden import (
    CASES, SCENARIOS, _packets, _rules, _SwapHook, observe,
)


@pytest.fixture(scope="module")
def captures(tmp_path_factory):
    """Each golden scenario's packets, written to a pcap.

    Stamps move 1 s later: pcap stores no negative times, and the
    ``reordered`` jitter pushes early stamps below zero.
    """
    root = tmp_path_factory.mktemp("ingest")
    paths = {}
    for name, (packet_kwargs, __, __) in SCENARIOS.items():
        paths[name] = root / f"{name}.pcap"
        write_pcap(
            paths[name],
            (
                Packet(p.data, timestamp=p.timestamp + 1.0)
                for p in _packets(**packet_kwargs)
            ),
        )
    return paths


def _serve(name, n_shards, executor, source, dump_path):
    # Large enough that nothing is evicted: under the process executor
    # the order in which shed and decision records reach the ring
    # depends on when workers answer, so eviction would too.
    recorder = FlightRecorder(1 << 16, sample_rate=0.05, seed=3)
    hook_log = []
    result = observe(
        name, n_shards, executor, source=source, recorder=recorder, hook_log=hook_log
    )
    recorder.dump(dump_path)
    return result, hook_log, dump_path.read_text(encoding="utf-8")


@pytest.mark.parametrize("executor", ["inline", "process"])
@pytest.mark.parametrize("name,n_shards", CASES)
def test_blocks_serve_like_packets(captures, tmp_path, name, n_shards, executor):
    path = captures[name]
    blocks = _serve(name, n_shards, executor, PcapSource(path), tmp_path / "blocks.jsonl")
    packets = _serve(
        name, n_shards, executor, iter(read_pcap(path)), tmp_path / "packets.jsonl"
    )
    assert blocks[0] == packets[0]
    assert blocks[1] == packets[1]
    if executor == "inline":
        assert blocks[2] == packets[2]
    else:
        assert sorted(blocks[2].splitlines()) == sorted(packets[2].splitlines())
    assert blocks[0]["offered"] == blocks[0]["processed"] + blocks[0]["shed"]
    if name == "swap":
        assert blocks[1] and blocks[0]["rule_swaps"] == 1
    assert blocks[2].count("\n") > 0


def test_retimed_pcap_source_offers_blocks(captures):
    """Re-timed, the capture's packets come as large blocks of the
    re-timed packets: one per :data:`PACK_ROWS` rows."""
    source = PcapSource(captures["saturating"], rate=1000.0, loop=3, seed=4)
    blocks = list(source.frame_blocks())
    packets = list(source)
    assert len(packets) > PACK_ROWS
    assert [len(block) for block in blocks[:-1]] == [PACK_ROWS] * (len(blocks) - 1)
    assert [
        (p.data, p.timestamp) for block in blocks for p in block.packets()
    ] == [(p.data, p.timestamp) for p in packets]


@pytest.mark.parametrize("hash_mode", ["bytes", "flow"])
def test_flow_hash_modes_shard_blocks_like_packets(tmp_path, inet_dataset, hash_mode):
    """Real IPv4 traffic, so ``"flow"`` mode parses 5-tuples per row."""
    path = tmp_path / "inet.pcap"
    write_pcap(path, inet_dataset.test_packets[:3000])
    rules = synthetic_firewall_ruleset(n_rules=8, seed=1)
    config = ServeConfig(n_shards=3, hash_mode=hash_mode, max_batch=64)
    blocks = StreamingGateway(rules, config).run(PcapSource(path))
    packets = StreamingGateway(rules, config).run(read_pcap(path))
    assert blocks.per_shard == packets.per_shard
    assert blocks.verdicts == packets.verdicts
    assert blocks.flush_reasons == packets.flush_reasons


def _block(payloads):
    lengths = np.array([len(p) for p in payloads], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]]).astype(np.int64)
    return FrameBlock(
        b"".join(payloads), offsets, lengths, np.zeros(len(payloads), dtype=np.float64)
    )


@given(
    st.lists(st.binary(min_size=0, max_size=64), min_size=1, max_size=40),
    st.integers(1, 7),
)
def test_vectorised_hash_equals_flow_shard(payloads, n_shards):
    block = _block(payloads)
    expected = [flow_shard(Packet(p), n_shards) for p in payloads]
    assert flow_shards(block, n_shards).tolist() == expected


@given(
    st.lists(st.binary(min_size=0, max_size=64), min_size=1, max_size=40),
    st.lists(st.integers(0, 80), min_size=1, max_size=6),
    st.integers(16, 256),
)
def test_block_keys_equal_packet_keys(payloads, offsets, block_size):
    """The one vectorised key extractor against the scalar oracle, row
    by row, on blocks read from a pcap and on blocks packed from packets."""
    packets = [Packet(p, timestamp=float(i)) for i, p in enumerate(payloads)]
    expected = [list(packet.bytes_at(tuple(offsets))) for packet in packets]
    capture = io.BytesIO()
    write_pcap(capture, packets)
    capture.seek(0)
    read = list(iter_pcap_blocks(capture, block_size=block_size))
    for blocks in (read, [FrameBlock.of(packets)], [_block(payloads)]):
        got = [
            row
            for block in blocks
            for row in block.bytes_at(np.arange(len(block)), offsets).tolist()
        ]
        assert got == expected
    assert Packet.batch_keys(packets, offsets).tolist() == expected


@pytest.mark.parametrize("executor", ["inline", "process"])
def test_packed_source_hashes_each_packet_once(
    tmp_path, inet_dataset, monkeypatch, executor
):
    """A live source packed at several shards is routed once per
    packet, as it is packed, and the block loop reuses that routing: in
    ``"flow"`` mode each packet's 5-tuple is parsed once.  The run equals
    the same capture served as its own frame blocks (hashed per block)."""
    import repro.net.flow as flow

    path = tmp_path / "inet.pcap"
    n = write_pcap(path, inet_dataset.test_packets)
    rules = synthetic_firewall_ruleset(n_rules=8, seed=1)
    config = ServeConfig(n_shards=3, hash_mode="flow", max_batch=16, executor=executor)
    expected = StreamingGateway(rules, config).run(PcapSource(path))
    parse, calls = flow.key_for_packet, []

    def counted(packet):
        calls.append(1)
        return parse(packet)

    monkeypatch.setattr(flow, "key_for_packet", counted)
    packed = StreamingGateway(rules, config).run(iter(read_pcap(path)))
    assert len(calls) == packed.offered == n
    assert packed.verdicts == expected.verdicts
    assert packed.per_shard == expected.per_shard
    assert packed.stats == expected.stats
    assert packed.offered == packed.processed + packed.shed
    owners = [flow_shard(p, 3, mode="flow") for p in read_pcap(path)]
    assert [s["processed"] for s in packed.per_shard] == [
        owners.count(i) for i in range(3)
    ]


class _ClockLog:
    """An alert engine that logs the gateway state at each evaluation."""

    def __init__(self):
        self.gateway = None
        self.log = []

    def evaluate(self, now):
        gateway = self.gateway
        self.log.append(
            (now, gateway._offered, dict(gateway._flush_reasons),
             [(s.processed, s.shed) for s in gateway.shards])
        )
        return []

    def finalize(self):
        pass


class _Blocks:
    """A capture offered as frame blocks read ``block_size`` bytes at a time."""

    def __init__(self, path, block_size):
        self.path = path
        self.block_size = block_size

    def frame_blocks(self):
        def blocks():
            with open(self.path, "rb") as handle:
                yield from iter_pcap_blocks(handle, block_size=self.block_size)

        return blocks()


class _OneRowBlocks:
    """A capture offered as one frame block per record."""

    def __init__(self, path):
        self.path = path

    def frame_blocks(self):
        return (
            FrameBlock(
                packet.data,
                np.zeros(1, dtype=np.int64),
                np.array([len(packet.data)], dtype=np.int64),
                np.array([packet.timestamp]),
            )
            for packet in read_pcap(self.path)
        )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 20_000), min_size=1, max_size=300),
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.integers(1, 48),
    st.sampled_from([0.0005, 0.002]),
    st.sampled_from([None, 40_000.0]),
    st.integers(16, 4096),
)
def test_any_stamp_order_serves_like_packets(
    tmp_path_factory, stamps_us, seed, n_shards, max_batch, max_latency,
    service_rate, block_size,
):
    """Arbitrary stamp orders, batch sizes, sheds and block splits,
    down to one record per block; a live iterator (packed as read) and
    a list (one block of its packets) serve alike."""
    rng = np.random.default_rng(seed)
    path = tmp_path_factory.mktemp("order") / "s.pcap"
    write_pcap(
        path,
        [
            Packet(bytes(rng.integers(0, 256, size=int(rng.integers(0, 80)), dtype=np.uint8)),
                   timestamp=1.0 + us * 1e-6)
            for us in stamps_us
        ],
    )
    config = ServeConfig(
        n_shards=n_shards, max_batch=max_batch, max_latency=max_latency,
        queue_capacity=2 * max_batch, service_rate=service_rate,
    )
    rules = synthetic_firewall_ruleset(n_rules=4, seed=seed % 7)
    runs = []
    sources = (
        _Blocks(path, block_size), _OneRowBlocks(path), iter(read_pcap(path)),
        read_pcap(path),
    )
    for source in sources:
        clocks = _ClockLog()
        gateway = StreamingGateway(
            rules, config, alert_engine=clocks, alert_interval=0.003
        )
        clocks.gateway = gateway
        result = gateway.run(source)
        runs.append((
            result.verdicts, result.per_shard, result.flush_reasons,
            result.latency_p50, result.latency_p99, result.batcher_wait_p99,
            result.shed, result.duration, clocks.log,
        ))
    assert runs[0] == runs[1] == runs[2] == runs[3]


@pytest.fixture(scope="module")
def disk(tmp_path_factory, long_inet):
    """Real IPv4 traffic as a capture, and an on-disk corpus, each more
    than one :data:`PACK_ROWS` block long."""
    root = tmp_path_factory.mktemp("disk")
    write_pcap(root / "inet.pcap", long_inet)
    corpus = build_corpus(
        CorpusSpec(n_packets=10_000, chunk_packets=2_500, window=5.0, seed=8),
        root / "corpus",
    )
    return root / "inet.pcap", corpus


def _retimed_disk_sources(disk):
    """Stream-time disk replays: a looped, re-timed capture and a
    re-timed corpus."""
    pcap, corpus = disk
    return (
        PcapSource(pcap, rate=100_000.0, loop=2, burstiness=4.0, seed=5),
        CorpusSource(corpus, rate=100_000.0, burstiness=4.0, seed=5),
    )


def test_only_live_sources_are_packed(monkeypatch, disk):
    """Lists, tuples, ``SyntheticSource`` and re-timed disk replays are
    served as blocks of their packets; only a live iterator is packed."""
    packets = _packets(seed=1, n=3000, rate=1_000_000.0)

    def refuse(self, source):
        raise AssertionError("packed a source")

    monkeypatch.setattr(StreamingGateway, "_pack", refuse)
    gateway = StreamingGateway(
        synthetic_firewall_ruleset(n_rules=4, seed=1),
        ServeConfig(n_shards=3, max_batch=128),
    )
    for source in (
        packets, tuple(packets), list(retime(packets, rate=50_000.0)),
        SyntheticSource(rate=50_000.0, n_packets=3000, duration=5.0),
        *_retimed_disk_sources(disk),
    ):
        result = gateway.run(source)
        assert result.offered == result.processed == sum(1 for __ in source)
    with pytest.raises(AssertionError, match="packed a source"):
        gateway.run(iter(packets))


class _LoggedAlerts(AlertEngine):
    """The default serve alerts, logging the gateway's counters at each
    evaluation next to the alerts it fired."""

    def __init__(self, registry):
        super().__init__(default_serve_alerts(shed_rate=0.01), registry=registry)
        self.gateway = None
        self.log = []

    def evaluate(self, now=0.0):
        fired = super().evaluate(now)
        gateway = self.gateway
        self.log.append(
            (now, gateway._offered, dict(gateway._flush_reasons),
             [(s.processed, s.shed) for s in gateway.shards], fired)
        )
        return fired


@pytest.fixture(scope="module")
def long_inet(inet_dataset):
    """Real IPv4 traffic tiled past one :data:`PACK_ROWS` block."""
    base = inet_dataset.test_packets
    tiled = base * (PACK_ROWS // len(base) + 2)
    return list(retime(tiled, rate=100_000.0, burstiness=4.0, seed=5))


@pytest.mark.parametrize("executor", ["inline", "process"])
@pytest.mark.parametrize("hash_mode", ["bytes", "flow"])
def test_list_serves_like_live_iterator(long_inet, disk, monkeypatch, executor, hash_mode):
    """A list and re-timed disk replays (served as large blocks) and the
    same packets read live (packed as read) give equal results, alert
    logs and retrain-hook batches, with a rule swap mid-run and
    shedding.  The hook receives the list's own packet objects."""
    assert len(long_inet) > PACK_ROWS
    config = ServeConfig(
        n_shards=3, hash_mode=hash_mode, executor=executor, max_batch=128,
        max_latency=0.002, queue_capacity=256, service_rate=25_000.0,
    )
    pack, packed = StreamingGateway._pack, []

    def counted(self, packets):
        packed.append(1)
        return pack(self, packets)

    monkeypatch.setattr(StreamingGateway, "_pack", counted)
    for blocked in (long_inet, *_retimed_disk_sources(disk)):
        runs = []
        for source in (blocked, iter(blocked)):
            packed.clear()
            registry = obs.Registry(enabled=True)
            hook_log = []
            with obs.use_registry(registry):
                alerts = _LoggedAlerts(registry)
                gateway = StreamingGateway(
                    _rules(seed=0), config, retrain_hook=_SwapHook(3000, hook_log),
                    alert_engine=alerts, alert_interval=0.005,
                )
                alerts.gateway = gateway
                result = gateway.run(source)
            runs.append((result, alerts.log, hook_log, len(packed)))
        (listed, listed_alerts, listed_hook, listed_packed), (
            live, live_alerts, live_hook, live_packed,
        ) = runs
        assert (listed_packed, live_packed) == (0, 1)
        for field in (
            "verdicts", "stats", "per_shard", "flush_reasons", "latency_p50",
            "latency_p99", "batcher_wait_p99", "rule_swaps", "alerts",
        ):
            assert getattr(listed, field) == getattr(live, field), field
        assert listed.offered > PACK_ROWS
        assert listed.rule_swaps == 1 and listed.shed and listed.alerts
        assert listed_alerts == live_alerts
        assert [
            [(p.data, p.timestamp) for p in batch] for batch in listed_hook
        ] == [[(p.data, p.timestamp) for p in batch] for batch in live_hook]
        if blocked is long_inet:
            assert all(
                a is b
                for listed_batch, live_batch in zip(listed_hook, live_hook)
                for a, b in zip(listed_batch, live_batch)
            )
