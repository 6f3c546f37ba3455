"""Tests for the repro CLI."""

import csv
import json

import numpy as np
import pytest

from repro.cli import main
from repro.net.pcap import write_pcap


@pytest.fixture(scope="module")
def pcap_and_labels(tmp_path_factory):
    """A small labelled capture written to disk (shared across CLI tests)."""
    from repro.datasets import TraceConfig, make_dataset

    dataset = make_dataset(
        "cli", TraceConfig(stack="inet", duration=12.0, n_devices=2, seed=55)
    )
    packets = dataset.train_packets + dataset.test_packets
    root = tmp_path_factory.mktemp("cli")
    pcap_path = root / "capture.pcap"
    write_pcap(pcap_path, packets)
    labels_path = root / "labels.csv"
    with open(labels_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["index", "category"])
        for index, packet in enumerate(packets):
            writer.writerow([index, packet.label.category])
    return str(pcap_path), str(labels_path), root


class TestTrain:
    def test_train_from_pcap(self, pcap_and_labels, capsys):
        pcap, labels, root = pcap_and_labels
        rules_path = root / "rules.json"
        model_path = root / "model.npz"
        code = main(
            [
                "train", "--pcap", pcap, "--labels", labels,
                "--rules", str(rules_path), "--model", str(model_path),
                "--fields", "5",
            ]
        )
        assert code == 0
        assert rules_path.exists() and model_path.exists()
        data = json.loads(rules_path.read_text())
        assert len(data["offsets"]) == 5
        out = capsys.readouterr().out
        assert "selected offsets" in out

    def test_train_synthetic(self, tmp_path, capsys):
        rules_path = tmp_path / "rules.json"
        code = main(
            ["train", "--synthetic", "zigbee", "--rules", str(rules_path)]
        )
        assert code == 0
        assert rules_path.exists()

    def test_train_requires_labels_with_pcap(self, pcap_and_labels, tmp_path):
        pcap, __, ___ = pcap_and_labels
        with pytest.raises(SystemExit):
            main(["train", "--pcap", pcap, "--rules", str(tmp_path / "r.json")])

    def test_train_requires_input(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["train", "--rules", str(tmp_path / "r.json")])


class TestInspectAndCompile:
    @pytest.fixture()
    def rules_path(self, pcap_and_labels):
        pcap, labels, root = pcap_and_labels
        path = root / "rules2.json"
        if not path.exists():
            main(
                ["train", "--pcap", pcap, "--labels", labels, "--rules", str(path)]
            )
        return path

    def test_rules_inspection(self, rules_path, capsys):
        assert main(["rules", str(rules_path)]) == 0
        out = capsys.readouterr().out
        assert "RuleSet over offsets" in out
        assert "TCAM" in out

    def test_p4_emission(self, rules_path, tmp_path, capsys):
        out_path = tmp_path / "gateway.p4"
        assert main(["p4", str(rules_path), "--out", str(out_path)]) == 0
        program = out_path.read_text()
        assert "V1Switch" in program
        assert program.count("{") == program.count("}")

    def test_p4_const_entries(self, rules_path, tmp_path):
        out_path = tmp_path / "gateway.p4"
        main(["p4", str(rules_path), "--out", str(out_path), "--const-entries"])
        assert "const entries" in out_path.read_text()

    def test_simulate(self, rules_path, pcap_and_labels, capsys):
        pcap, __, ___ = pcap_and_labels
        assert main(["simulate", str(rules_path), "--pcap", pcap]) == 0
        out = capsys.readouterr().out
        assert "dropped" in out and "hits" in out

    def test_eval(self, rules_path, pcap_and_labels, capsys):
        pcap, labels, __ = pcap_and_labels
        assert main(["eval", str(rules_path), "--pcap", pcap, "--labels", labels]) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        # trained and evaluated on the same capture → should be accurate
        accuracy = float(out.split("accuracy:")[1].split()[0])
        assert accuracy > 0.9


class TestLabelParsing:
    def test_out_of_range_index_rejected(self, pcap_and_labels, tmp_path):
        pcap, __, ___ = pcap_and_labels
        bad = tmp_path / "bad.csv"
        bad.write_text("index,category\n999999,syn_flood\n")
        with pytest.raises(SystemExit):
            main(
                [
                    "train", "--pcap", pcap, "--labels", str(bad),
                    "--rules", str(tmp_path / "r.json"),
                ]
            )

    def test_comments_and_header_skipped(self, pcap_and_labels, tmp_path):
        pcap, __, root = pcap_and_labels
        labels = tmp_path / "sparse.csv"
        labels.write_text("# comment\nindex,category\n0,syn_flood\n")
        rules_path = tmp_path / "r.json"
        assert (
            main(
                [
                    "train", "--pcap", pcap, "--labels", str(labels),
                    "--rules", str(rules_path),
                ]
            )
            == 0
        )


class TestExplainAndOptimize:
    def test_explain_command(self, pcap_and_labels, tmp_path, capsys):
        pcap, labels, __ = pcap_and_labels
        rules_path = tmp_path / "rx.json"
        main(["train", "--pcap", pcap, "--labels", labels, "--rules", str(rules_path)])
        capsys.readouterr()
        assert main(["explain", str(rules_path)]) == 0
        out = capsys.readouterr().out
        assert "Deployed firewall rules" in out
        assert "DROP when" in out or "QUARANTINE when" in out

    def test_explain_packet_index_walks_provenance(
        self, pcap_and_labels, tmp_path, capsys
    ):
        """`repro explain --index` on a dropped packet prints the full
        chain: matched rule, key byte offsets/values, and the Stage-2
        tree path the rule distilled from."""
        from repro.core.serialize import load_ruleset
        from repro.dataplane import GatewayController
        from repro.net.pcap import read_pcap

        pcap, labels, __ = pcap_and_labels
        rules_path = tmp_path / "rexp.json"
        main(["train", "--pcap", pcap, "--labels", labels, "--rules", str(rules_path)])
        # find a packet the deployed rules drop
        rules = load_ruleset(rules_path)
        controller = GatewayController.for_ruleset(rules, table_capacity=65536)
        controller.deploy(rules)
        packets = read_pcap(pcap)
        drop_index = next(
            i
            for i, packet in enumerate(packets)
            if controller.switch.process(packet).action == "drop"
        )
        capsys.readouterr()
        code = main(
            [
                "explain", str(rules_path), "--pcap", pcap,
                "--index", str(drop_index),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"packet #{drop_index}" in out
        assert "verdict=drop" in out
        assert "key bytes: b[" in out
        assert "matched: table=" in out and "entry=" in out
        assert "rule: " in out and "confidence" in out
        assert "tree path: b[" in out  # trained rules carry provenance

    def test_explain_index_out_of_range(self, pcap_and_labels, tmp_path):
        from repro.core.serialize import save_ruleset
        from repro.eval.harness import synthetic_firewall_ruleset

        pcap, __, ___ = pcap_and_labels
        rules_path = tmp_path / "roor.json"
        save_ruleset(synthetic_firewall_ruleset(n_rules=4, seed=3), rules_path)
        with pytest.raises(SystemExit, match="out of range"):
            main(
                [
                    "explain", str(rules_path), "--pcap", pcap,
                    "--index", "999999",
                ]
            )

    def test_train_with_optimize_flag(self, pcap_and_labels, tmp_path, capsys):
        pcap, labels, __ = pcap_and_labels
        rules_path = tmp_path / "ro.json"
        code = main(
            [
                "train", "--pcap", pcap, "--labels", labels,
                "--rules", str(rules_path), "--optimize",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "optimised:" in out
        assert rules_path.exists()


class TestSynth:
    def test_synth_writes_pcap_and_labels(self, tmp_path, capsys):
        pcap = tmp_path / "t.pcap"
        labels = tmp_path / "t.csv"
        code = main(
            [
                "synth", "--stack", "inet", "--duration", "8",
                "--devices", "1", "--seed", "3",
                "--pcap", str(pcap), "--labels", str(labels),
            ]
        )
        assert code == 0
        assert pcap.exists() and labels.exists()
        rows = labels.read_text().strip().split("\n")
        from repro.net.pcap import read_pcap

        assert len(rows) - 1 == len(read_pcap(pcap))

    def test_synth_then_train_roundtrip(self, tmp_path, capsys):
        """The full CLI workflow: synth → train → eval."""
        pcap = tmp_path / "t.pcap"
        labels = tmp_path / "t.csv"
        rules = tmp_path / "t.json"
        main(
            [
                "synth", "--duration", "10", "--devices", "1", "--seed", "4",
                "--pcap", str(pcap), "--labels", str(labels),
            ]
        )
        assert main(
            ["train", "--pcap", str(pcap), "--labels", str(labels),
             "--rules", str(rules)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["eval", str(rules), "--pcap", str(pcap), "--labels", str(labels)]
        ) == 0
        out = capsys.readouterr().out
        accuracy = float(out.split("accuracy:")[1].split()[0])
        assert accuracy > 0.85


class TestCapacityAndBatchFlags:
    @pytest.fixture()
    def rules_path(self, pcap_and_labels):
        pcap, labels, root = pcap_and_labels
        path = root / "rules_flags.json"
        if not path.exists():
            main(
                ["train", "--pcap", pcap, "--labels", labels, "--rules", str(path)]
            )
        return path

    def test_simulate_with_capacity_and_batch(
        self, rules_path, pcap_and_labels, capsys
    ):
        pcap, __, ___ = pcap_and_labels
        capsys.readouterr()
        code = main(
            [
                "simulate", str(rules_path), "--pcap", pcap,
                "--batch-size", "256", "--table-capacity", "8192",
            ]
        )
        assert code == 0
        assert "dropped" in capsys.readouterr().out

    def test_eval_with_capacity_and_batch(
        self, rules_path, pcap_and_labels, capsys
    ):
        pcap, labels, __ = pcap_and_labels
        capsys.readouterr()
        code = main(
            [
                "eval", str(rules_path), "--pcap", pcap, "--labels", labels,
                "--batch-size", "512", "--table-capacity", "8192",
            ]
        )
        assert code == 0
        assert "accuracy" in capsys.readouterr().out

    def test_eval_rejects_bad_batch_size(self, rules_path, pcap_and_labels):
        pcap, labels, __ = pcap_and_labels
        with pytest.raises(SystemExit):
            main(
                [
                    "eval", str(rules_path), "--pcap", pcap,
                    "--labels", labels, "--batch-size", "0",
                ]
            )

    def test_too_small_capacity_fails_deploy(self, rules_path, pcap_and_labels):
        pcap, __, ___ = pcap_and_labels
        with pytest.raises(Exception):
            main(
                [
                    "simulate", str(rules_path), "--pcap", pcap,
                    "--table-capacity", "1",
                ]
            )


class TestServe:
    @pytest.fixture()
    def rules_path(self, tmp_path):
        from repro.core.serialize import save_ruleset
        from repro.eval.harness import synthetic_firewall_ruleset

        path = tmp_path / "serve_rules.json"
        save_ruleset(synthetic_firewall_ruleset(n_rules=8, seed=3), path)
        return path

    def test_serve_synthetic_soak(self, rules_path, capsys):
        code = main(
            [
                "serve", str(rules_path), "--synthetic", "inet",
                "--packets", "3000", "--rate", "100000",
                "--shards", "2", "--max-batch", "256",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "processed 3000 pkts" in out
        assert "shard 0" in out and "shard 1" in out
        assert "latency" in out

    def test_serve_synthetic_loop_replays_the_trace(self, rules_path, capsys):
        """``--loop 3`` offers the ``--packets`` trace three times over."""
        code = main(
            [
                "serve", str(rules_path), "--synthetic", "inet",
                "--packets", "1000", "--loop", "3", "--rate", "100000",
            ]
        )
        assert code == 0
        assert "processed 3000 pkts" in capsys.readouterr().out

    def test_serve_pcap_with_overload(self, rules_path, pcap_and_labels, capsys):
        pcap, __, ___ = pcap_and_labels
        code = main(
            [
                "serve", str(rules_path), "--pcap", pcap,
                "--rate", "50000", "--service-rate", "5000",
                "--queue-capacity", "1024", "--max-batch", "128",
                "--policy", "fail-open",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "shed" in out

    def test_serve_table_format(self, rules_path, capsys):
        code = main(
            [
                "serve", str(rules_path), "--synthetic", "inet",
                "--packets", "1000", "--format", "table",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serve_offered_packets_total" in out

    def test_serve_alerts_fire_and_dump_flight(self, rules_path, tmp_path, capsys):
        """Over-offered soak: shed-rate alert fires and the flight dump
        holds a record for every shed packet."""
        from repro.obs.events import KIND_SHED, read_events

        dump = tmp_path / "flight.jsonl"
        code = main(
            [
                "serve", str(rules_path), "--synthetic", "inet",
                "--packets", "4000", "--rate", "100000",
                "--service-rate", "10000", "--queue-capacity", "512",
                "--max-batch", "256",
                "--alerts", "--flight-dump", str(dump),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ALERT shed_rate_high" in out
        assert "alerts" in out
        shed = int(
            next(line for line in out.splitlines() if "shed" in line).split()[1]
        )
        assert shed > 0
        shed_records = [
            e for e in read_events(dump) if e.kind == KIND_SHED
        ]
        assert len(shed_records) == shed

    def test_serve_saves_snapshot(self, rules_path, tmp_path, capsys):
        snapshot = tmp_path / "serve.jsonl"
        code = main(
            [
                "serve", str(rules_path), "--synthetic", "inet",
                "--packets", "1000", "--save", str(snapshot),
            ]
        )
        assert code == 0
        assert snapshot.exists()
        lines = snapshot.read_text().strip().split("\n")
        names = {json.loads(line)["name"] for line in lines}
        assert "serve_offered_packets_total" in names

    @pytest.mark.parametrize("flags,message", [
        (["--ring-slots", "0"], "ring_slots must be >= 2"),
        (["--ring-slots", "1", "--executor", "process"], "ring_slots must be >= 2"),
        (["--max-batch", "0"], "max_batch must be >= 1"),
        (["--queue-capacity", "10"], "queue_capacity must be >= max_batch"),
        (["--packets", "0"], "n_packets must be >= 1"),
        (["--rate", "0"], "rate must be positive"),
        (["--burstiness", "0.5"], "burstiness must be >= 1.0"),
        (["--pcap", "t.pcap", "--rate", "0"], "rate must be positive"),
        (["--pcap", "t.pcap", "--loop", "2"], "looping requires rate re-timing"),
        (["--loop", "0"], "loop must be >= 1"),
        (
            ["--pcap", "t.pcap", "--rate", "50000", "--packets", "1000"],
            "--packets sets the --synthetic stream length; not with --pcap",
        ),
    ], ids=[
        "ring-slots-0", "ring-slots-1", "max-batch", "queue-capacity",
        "packets", "synthetic-rate", "synthetic-burstiness", "pcap-rate",
        "pcap-loop", "synthetic-loop-0", "pcap-packets",
    ])
    def test_serve_refuses_bad_settings(self, rules_path, flags, message):
        """An invalid setting exits with its message, not a traceback."""
        with pytest.raises(SystemExit, match=message) as exc:
            main(["serve", str(rules_path), "--synthetic", "inet", *flags])
        assert exc.value.code not in (0, None)


class TestServeFlags:
    """``serve`` and ``corpus replay`` build their shared flags in one
    place; each keeps its own defaults and its own extra flags."""

    SHARED = {
        # flag: (type, choices, serve default, corpus replay default)
        "--rate": (float, None, None, None),
        "--burstiness": (float, None, 1.0, 1.0),
        "--loop": (int, None, 1, 1),
        "--shards": (int, None, 1, 1),
        "--executor": (None, ["inline", "process"], "inline", "inline"),
        "--max-batch": (int, None, 1024, 1024),
        "--max-latency-ms": (float, None, 5.0, 5.0),
        "--queue-capacity": (int, None, 8192, 8192),
        "--policy": (
            None, ["fail-open", "fail-closed"], "fail-closed", "fail-closed"
        ),
        "--service-rate": (float, None, None, None),
        "--table-capacity": (int, None, 4096, 4096),
        "--seed": (int, None, 7, 0),
        "--save": (None, None, None, None),
        "--format": (
            None, ["summary", "table", "jsonl", "prometheus"], "summary",
            "summary",
        ),
    }
    SERVE_ONLY = [
        "--ring-slots", "--hash-mode", "--tenants", "--alerts",
        "--flight-dump",
    ]

    @staticmethod
    def _flags(*path):
        import argparse

        from repro.cli import build_parser

        parser = build_parser()
        for name in path:
            sub = next(
                action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)
            )
            parser = sub.choices[name]
        return {
            option: action
            for action in parser._actions
            for option in action.option_strings
        }

    def test_shared_flags_keep_their_defaults(self):
        commands = [self._flags("serve"), self._flags("corpus", "replay")]
        for flag, (kind, choices, *defaults) in self.SHARED.items():
            for flags, default in zip(commands, defaults):
                action = flags[flag]
                assert action.type is kind, flag
                assert action.choices == choices, flag
                assert action.default == default, flag

    def test_serve_only_flags(self):
        serve = self._flags("serve")
        replay = self._flags("corpus", "replay")
        for flag in self.SERVE_ONLY:
            assert flag in serve
            assert flag not in replay
        assert {"--no-verify", "--swap-after"} <= set(replay)
        assert "--no-verify" not in serve and "--swap-after" not in serve
