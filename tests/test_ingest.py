"""Frame-block ingest serves a capture exactly as the per-packet loop does.

A source that offers frame blocks (``PcapSource`` on its recorded
clock) takes the gateway's block loop; the same capture read into a
packet list takes the per-packet loop.  Every golden scenario, written
to a pcap, must produce equal results both ways, on both executors:
every field :func:`test_gateway_golden.observe` returns, the packets
the retrain hook receives, and the flight-recorder dump.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.harness import synthetic_firewall_ruleset
from repro.net.frames import FrameBlock
from repro.net.packet import Packet
from repro.net.pcap import iter_pcap_blocks, read_pcap, write_pcap
from repro.obs import FlightRecorder
from repro.serve import IterableSource, PcapSource, ServeConfig, StreamingGateway
from repro.serve.shard import flow_shard, flow_shards

from tests.test_gateway_golden import CASES, SCENARIOS, _packets, observe


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
    source = PcapSource(path)
    assert source.frame_blocks() is not None
    blocks = _serve(name, n_shards, executor, source, tmp_path / "blocks.jsonl")
    packets = _serve(
        name, n_shards, executor, IterableSource(read_pcap(path)), tmp_path / "packets.jsonl"
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


def test_retimed_pcap_source_offers_no_blocks(captures):
    assert PcapSource(captures["saturating"], rate=1000.0).frame_blocks() is None


@pytest.mark.parametrize("hash_mode", ["bytes", "flow"])
def test_flow_hash_modes_shard_blocks_like_packets(tmp_path, inet_dataset, hash_mode):
    """Real IPv4 traffic, so ``"flow"`` mode parses 5-tuples per row."""
    path = tmp_path / "inet.pcap"
    write_pcap(path, inet_dataset.test_packets[:3000])
    rules = synthetic_firewall_ruleset(n_rules=8, seed=1)
    config = ServeConfig(n_shards=3, hash_mode=hash_mode, max_batch=64)
    blocks = StreamingGateway(rules, config).run(PcapSource(path))
    packets = StreamingGateway(rules, config).run(IterableSource(read_pcap(path)))
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
    st.lists(st.integers(0, 80), min_size=1, max_size=6, unique=True),
)
def test_block_keys_equal_packet_keys(payloads, offsets):
    block = _block(payloads)
    rows = np.arange(len(payloads))
    expected = Packet.batch_keys([Packet(p) for p in payloads], offsets)
    assert block.bytes_at(rows, offsets).tolist() == expected.tolist()


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
    """Arbitrary stamp orders, batch sizes, sheds and block splits."""
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
    for source in (_Blocks(path, block_size), IterableSource(read_pcap(path))):
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
    assert runs[0] == runs[1]
