"""Tests for repro.corpus: deterministic builds, verified bounded replay."""

import json

import pytest

from repro.corpus import (
    CorpusError,
    CorpusManifest,
    CorpusSource,
    CorpusSpec,
    MANIFEST_NAME,
    TimedSwapHook,
    build_corpus,
    family_registry,
    load_manifest,
    replay_corpus,
)
from repro.eval.harness import synthetic_firewall_ruleset
from repro.net.pcap import read_pcap
from repro.serve import ServeConfig, StreamingGateway

# small, fast spec shared across tests: 4 chunks, narrow generation
# window so a build takes well under a second
SMALL = dict(n_packets=4_000, chunk_packets=1_000, window=5.0, seed=21)


def small_spec(**overrides):
    kwargs = dict(SMALL)
    kwargs.update(overrides)
    return CorpusSpec(**kwargs)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus") / "small"
    manifest = build_corpus(small_spec(), root)
    return manifest


class TestSpec:
    def test_validation(self):
        with pytest.raises(CorpusError):
            CorpusSpec(stack="nope")
        with pytest.raises(CorpusError):
            CorpusSpec(n_packets=0)
        with pytest.raises(CorpusError):
            CorpusSpec(attack_fraction=1.5)
        with pytest.raises(CorpusError):
            CorpusSpec(attack_families=["not_a_family"])
        with pytest.raises(CorpusError):
            CorpusSpec(burstiness=0.5)

    def test_family_registry_covers_stacks(self):
        known = family_registry()
        assert "syn_flood" in known
        assert "benign" not in known

    def test_spec_roundtrips_via_dict(self):
        spec = small_spec(attack_families=["syn_flood", "port_scan"])
        assert CorpusSpec.from_dict(spec.to_dict()) == spec


class TestDeterminism:
    def test_rebuild_is_byte_identical(self, tmp_path):
        spec = small_spec()
        a = build_corpus(spec, tmp_path / "a")
        b = build_corpus(spec, tmp_path / "b")
        assert [c.digest for c in a.chunks] == [c.digest for c in b.chunks]
        for meta in a.chunks:
            assert (tmp_path / "a" / meta.file).read_bytes() == (
                tmp_path / "b" / meta.file
            ).read_bytes()
        assert a.to_json() == b.to_json()

    def test_different_seed_differs(self, tmp_path, small_corpus):
        other = build_corpus(small_spec(seed=22), tmp_path / "c")
        assert [c.digest for c in other.chunks] != [
            c.digest for c in small_corpus.chunks
        ]

    def test_gzip_digests_match_plain(self, tmp_path, small_corpus):
        spec = small_spec(compress=True)
        gz = build_corpus(spec, tmp_path / "gz")
        # digests are over the uncompressed bytes, so the compressed
        # build of the same spec agrees with the plain build
        assert [c.digest for c in gz.chunks] == [
            c.digest for c in small_corpus.chunks
        ]
        assert all(c.file.endswith(".pcap.gz") for c in gz.chunks)
        # and the gzip files themselves rebuild byte-identically
        gz2 = build_corpus(spec, tmp_path / "gz2")
        for meta in gz.chunks:
            assert (tmp_path / "gz" / meta.file).read_bytes() == (
                tmp_path / "gz2" / meta.file
            ).read_bytes()

    def test_chunking_preserves_class_mix(self, tmp_path):
        # class targets are computed per chunk, so family counts may
        # shift by the per-chunk rounding remainder — but never more
        coarse = build_corpus(small_spec(chunk_packets=2_000), tmp_path / "k")
        fine = build_corpus(small_spec(chunk_packets=500), tmp_path / "f")
        assert coarse.packets == fine.packets
        a, b = coarse.class_counts(), fine.class_counts()
        assert a["benign"] == b["benign"]
        assert set(a) == set(b)
        tolerance = len(coarse.chunks) + len(fine.chunks)
        for name in a:
            assert abs(a[name] - b[name]) <= tolerance


class TestManifest:
    def test_load_manifest(self, small_corpus):
        loaded = load_manifest(small_corpus.root)
        assert loaded.to_json() == small_corpus.to_json()
        by_file = load_manifest(small_corpus.root / MANIFEST_NAME)
        assert by_file.to_json() == small_corpus.to_json()

    def test_counts_and_timestamps(self, small_corpus):
        assert small_corpus.packets == 4_000
        assert len(small_corpus.chunks) == 4
        counts = small_corpus.class_counts()
        assert counts["benign"] == 2_000
        assert sum(counts.values()) == 4_000
        last = 0.0
        for meta in small_corpus.chunks:
            assert meta.first_timestamp >= last
            assert meta.last_timestamp >= meta.first_timestamp
            last = meta.last_timestamp

    def test_build_refuses_overwrite(self, small_corpus):
        with pytest.raises(CorpusError):
            build_corpus(small_spec(), small_corpus.root)
        rebuilt = build_corpus(small_spec(), small_corpus.root, force=True)
        assert rebuilt.to_json() == small_corpus.to_json()

    def test_bad_format_rejected(self, tmp_path):
        root = tmp_path / "bad"
        root.mkdir()
        (root / MANIFEST_NAME).write_text(
            json.dumps({"format": "something/else"})
        )
        with pytest.raises(CorpusError):
            load_manifest(root)


class TestSource:
    def test_streams_every_packet_in_order(self, small_corpus):
        source = CorpusSource(small_corpus)
        packets = list(source)
        assert len(packets) == len(source) == 4_000
        times = [p.timestamp for p in packets]
        assert times == sorted(times)
        assert source.chunks_verified == 4

    def test_matches_read_pcap(self, small_corpus):
        streamed = list(CorpusSource(small_corpus))
        direct = []
        for meta in small_corpus.chunks:
            direct.extend(read_pcap(small_corpus.chunk_path(meta)))
        assert [p.data for p in streamed] == [p.data for p in direct]

    @pytest.mark.parametrize("rate", [None, 1e5])
    def test_frame_blocks_match_packets(self, small_corpus, rate):
        """Recorded or re-timed, the blocks carry the packets' rows;
        re-timed ones are cut into large blocks (one here)."""
        kwargs = dict(rate=rate, burstiness=4.0, seed=3)
        source = CorpusSource(small_corpus, **kwargs)
        blocks = list(source.frame_blocks())
        rows = [
            (packet.data, packet.timestamp)
            for block in blocks
            for packet in block.packets()
        ]
        assert source.chunks_verified == 4
        assert rows == [
            (p.data, p.timestamp) for p in CorpusSource(small_corpus, **kwargs)
        ]
        if rate is not None:
            assert len(blocks) == 1

    def test_corruption_detected(self, tmp_path):
        manifest = build_corpus(small_spec(), tmp_path / "x")
        path = manifest.chunk_path(manifest.chunks[2])
        blob = bytearray(path.read_bytes())
        # flip payload bytes (the tail of the last record) so the pcap
        # still parses and the digest check itself must catch it
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorpusError, match="digest mismatch"):
            list(CorpusSource(manifest))
        # verification off: the corrupted payload streams through
        assert len(list(CorpusSource(manifest, verify=False))) == 4_000

    def test_loop_requires_rate(self, small_corpus):
        with pytest.raises(CorpusError):
            CorpusSource(small_corpus, loop=2)
        source = CorpusSource(small_corpus, rate=200_000.0, loop=2)
        assert len(list(source)) == 8_000
        assert source.chunks_verified == 8

    def test_gzip_corpus_streams(self, tmp_path):
        manifest = build_corpus(small_spec(compress=True), tmp_path / "gz")
        source = CorpusSource(manifest)
        assert len(list(source)) == 4_000
        assert source.chunks_verified == 4

    def test_bounded_memory(self, tmp_path):
        import tracemalloc

        # a corpus much bigger than the allowed ceiling: streaming must
        # hold one record at a time, not a chunk, not the corpus
        manifest = build_corpus(
            CorpusSpec(
                n_packets=40_000, chunk_packets=10_000, window=5.0, seed=5
            ),
            tmp_path / "big",
        )
        assert manifest.bytes > 4_000_000
        source = iter(CorpusSource(manifest))
        next(source)  # warm readers before the baseline snapshot
        tracemalloc.start()
        for __ in source:
            pass
        __, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # ceiling: the 64 KB read block plus stitching copies and one
        # record — far below the 8 MB corpus, and independent of its size
        assert peak < 2_000_000

    def test_retimed_blocks_bounded_memory(self, tmp_path):
        """Re-timed blocks hold a block of packets at a time, however
        long the corpus: 4x the packets, the same peak within 10%."""
        import tracemalloc

        peaks = []
        for n_packets in (20_000, 80_000):
            manifest = build_corpus(
                CorpusSpec(
                    n_packets=n_packets, chunk_packets=5_000, window=5.0, seed=5
                ),
                tmp_path / str(n_packets),
            )
            blocks = CorpusSource(
                manifest, rate=1e5, burstiness=4.0, seed=3
            ).frame_blocks()
            rows = 0
            tracemalloc.start()
            for block in blocks:
                rows += len(block)
            __, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert rows == n_packets
            peaks.append(peak)
        assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]


class TestRetimeStreaming:
    def test_retime_accepts_generator_lazily(self):
        # regression: retime must consume generators incrementally, not
        # materialise them — CorpusSource chains multi-million-packet
        # streams through it
        import itertools

        from repro.net.packet import Packet
        from repro.serve import retime

        def endless():
            while True:
                yield Packet(b"z")

        stream = retime(endless(), rate=1000.0, burstiness=2.0, seed=3)
        head = list(itertools.islice(stream, 50))
        assert len(head) == 50
        times = [p.timestamp for p in head]
        assert times == sorted(times)


class TestReplay:
    def test_verdicts_match_in_memory_oracle(self, small_corpus):
        rules = synthetic_firewall_ruleset(seed=4)
        config = ServeConfig(n_shards=2, record_verdicts=False)
        report = replay_corpus(small_corpus, rules, config)
        offline = StreamingGateway(rules, config).run(
            list(CorpusSource(small_corpus))
        )
        assert report.result.offered == 4_000
        assert (
            report.result.offered
            == report.result.processed + report.result.shed
        )
        assert report.result.stats.dropped == offline.stats.dropped
        assert report.result.stats.allowed == offline.stats.allowed
        assert report.chunks_verified == 4

    def test_swap_hook_fires_once_and_is_timed(self, small_corpus):
        rules = synthetic_firewall_ruleset(seed=4)
        report = replay_corpus(
            small_corpus,
            rules,
            ServeConfig(record_verdicts=False),
            swap_after=1_500,
        )
        assert report.swap_at_packet is not None
        assert report.swap_at_packet >= 1_500
        assert report.retrain_seconds is not None
        assert report.install_seconds is not None
        assert report.swap_latency_seconds > 0
        assert report.result.rule_swaps == 1
        assert "drift→retrain→swap" in report.summary()

    def test_swap_to_different_rules_keeps_accounting(self, small_corpus):
        retrained = []

        def retrain():
            retrained.append(synthetic_firewall_ruleset(seed=5))
            return retrained[-1]

        report = replay_corpus(
            small_corpus,
            synthetic_firewall_ruleset(seed=4),
            ServeConfig(record_verdicts=False),
            swap_after=2_000,
            swap_rules=retrain,
        )
        result = report.result
        assert len(retrained) == 1
        assert result.rule_swaps == 1
        assert report.swap_latency_seconds > 0
        assert report.chunks_verified == len(small_corpus.chunks)
        assert result.offered == result.processed + result.shed == SMALL["n_packets"]

    def test_rss_samples_cover_chunks(self, small_corpus):
        rules = synthetic_firewall_ruleset(seed=4)
        report = replay_corpus(
            small_corpus, rules, ServeConfig(record_verdicts=False)
        )
        # baseline + one per chunk + final
        assert len(report.rss_samples) == 4 + 2
        assert report.peak_rss_bytes >= report.rss_samples[0] >= 0

    def test_timed_swap_hook_validation(self):
        with pytest.raises(ValueError):
            TimedSwapHook(lambda: None, after_packets=0)


class TestCli:
    def test_build_info_replay(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "demo"
        assert (
            main(
                [
                    "corpus",
                    "build",
                    str(out),
                    "--packets",
                    "3000",
                    "--chunk-packets",
                    "1000",
                    "--window",
                    "5",
                    "--seed",
                    "9",
                ]
            )
            == 0
        )
        built = capsys.readouterr().out
        assert "3,000 packets in 3 chunks" in built
        assert main(["corpus", "info", str(out), "--chunks"]) == 0
        info = capsys.readouterr().out
        assert "chunk-00002.pcap" in info
        assert (
            main(
                [
                    "corpus",
                    "replay",
                    str(out),
                    "--swap-after",
                    "1000",
                    "--seed",
                    "9",
                ]
            )
            == 0
        )
        replayed = capsys.readouterr().out
        assert "3 chunks streamed, 3 digests verified" in replayed
        assert "drift→retrain→swap" in replayed

    @pytest.mark.parametrize("flags,message", [
        (["--shards", "0"], "n_shards must be >= 1"),
        (["--max-batch", "0"], "max_batch must be >= 1"),
        (["--queue-capacity", "10"], "queue_capacity must be >= max_batch"),
    ], ids=["shards", "max-batch", "queue-capacity"])
    def test_replay_refuses_bad_settings(self, small_corpus, flags, message):
        """An invalid serve setting exits with its message, not a traceback."""
        from repro.cli import main

        root = str(small_corpus.root)
        with pytest.raises(SystemExit, match=message) as exc:
            main(["corpus", "replay", root, *flags])
        assert exc.value.code not in (0, None)

    def test_replay_reports_corruption(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "demo"
        main(
            [
                "corpus",
                "build",
                str(out),
                "--packets",
                "2000",
                "--chunk-packets",
                "1000",
                "--window",
                "5",
            ]
        )
        capsys.readouterr()
        manifest = load_manifest(out)
        path = manifest.chunk_path(manifest.chunks[0])
        path.write_bytes(path.read_bytes()[:-1] + b"\x00")
        with pytest.raises(SystemExit, match="digest mismatch"):
            main(["corpus", "replay", str(out)])
