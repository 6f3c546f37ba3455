"""Command-line interface: train, inspect, compile and evaluate gateways.

Installed as the ``repro`` console script::

    repro train --synthetic inet --rules rules.json --model model.npz
    repro train --pcap capture.pcap --labels labels.csv --rules rules.json
    repro rules rules.json
    repro p4 rules.json --out gateway.p4
    repro simulate rules.json --pcap capture.pcap
    repro eval rules.json --pcap capture.pcap --labels labels.csv
    repro stats rules.json --synthetic inet --format table
    repro serve rules.json --synthetic inet --rate 50000 --shards 4

Label files are CSV with one ``index,category`` row per packet (category
``benign`` or any attack name); packets not listed default to benign.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from repro.core import DetectorConfig, TwoStageDetector
from repro.core.serialize import load_ruleset, save_ruleset
from repro.dataplane import GatewayController, generate_p4_program
from repro.datasets import FeatureExtractor, standard_suite
from repro.eval.metrics import binary_metrics
from repro.net.packet import Packet
from repro.net.pcap import read_pcap

__all__ = ["main", "build_parser"]


def _load_labels(path: Path, count: int) -> np.ndarray:
    """Read an index,category CSV into a binary label vector."""
    labels = np.zeros(count, dtype=np.int64)
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.reader(handle):
            if not row or row[0].startswith("#") or row[0] == "index":
                continue
            index = int(row[0])
            if not 0 <= index < count:
                raise SystemExit(f"label index {index} out of range 0..{count - 1}")
            labels[index] = 0 if row[1].strip() == "benign" else 1
    return labels


def _load_packets(args) -> tuple:
    """(packets, binary labels or None) from --pcap/--labels or --synthetic."""
    if args.pcap:
        packets = read_pcap(args.pcap)
        labels = (
            _load_labels(Path(args.labels), len(packets))
            if getattr(args, "labels", None)
            else None
        )
        return packets, labels
    if getattr(args, "synthetic", None):
        if args.synthetic == "industrial":
            from repro.datasets import TraceConfig, make_dataset

            dataset = make_dataset(
                "industrial",
                TraceConfig(stack="industrial", duration=40.0, n_devices=3),
            )
        else:
            dataset = standard_suite()[args.synthetic]
        packets = dataset.train_packets + dataset.test_packets
        labels = np.concatenate(
            [dataset.y_train_binary, dataset.y_test_binary]
        )
        return packets, labels
    raise SystemExit("need --pcap or --synthetic")


def cmd_train(args) -> int:
    packets, labels = _load_packets(args)
    if labels is None:
        raise SystemExit("training requires --labels with --pcap")
    extractor = FeatureExtractor(n_bytes=args.window)
    x = extractor.transform(packets)
    config = DetectorConfig(
        n_bytes=args.window, n_fields=args.fields, seed=args.seed
    )
    detector = TwoStageDetector(config)
    detector.fit(x, labels)
    rules = detector.generate_rules()
    if args.optimize:
        from repro.core import optimize_ruleset

        rules, report = optimize_ruleset(rules)
        print(f"optimised: {report}")
    print(f"trained on {len(packets)} packets "
          f"({int(labels.sum())} attack / {int((labels == 0).sum())} benign)")
    print(f"selected offsets: {list(detector.offsets or ())}")
    print(rules.describe())
    save_ruleset(rules, args.rules)
    print(f"wrote {args.rules}")
    if args.model:
        assert detector.classifier is not None
        detector.classifier.model.save(args.model)
        print(f"wrote {args.model}")
    return 0


def cmd_rules(args) -> int:
    rules = load_ruleset(args.rules)
    print(rules.describe())
    report = rules.resource_report()
    print(
        f"\nresources: {report['rules']} rules, "
        f"{report['ternary_entries']} ternary entries, "
        f"key {report['match_width_bits']}b, TCAM {report['tcam_bits']}b"
    )
    return 0


def cmd_synth(args) -> int:
    from repro.datasets import TraceConfig, generate_trace
    from repro.net.pcap import write_pcap

    config = TraceConfig(
        stack=args.stack,
        duration=args.duration,
        n_devices=args.devices,
        seed=args.seed,
        chatter=args.chatter,
    )
    packets = generate_trace(config)
    write_pcap(args.pcap, packets)
    print(f"wrote {args.pcap} ({len(packets)} packets)")
    if args.labels:
        with open(args.labels, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "category"])
            for index, packet in enumerate(packets):
                writer.writerow([index, packet.label.category])
        print(f"wrote {args.labels}")
    return 0


def cmd_cache(args) -> int:
    from repro.datasets import cache as cache_mod

    if args.action == "list":
        found = cache_mod.entries()
        print(f"cache dir: {cache_mod.cache_dir()}")
        if not found:
            print("(empty)")
            return 0
        for entry in found:
            if entry.get("corrupted"):
                print(f"  {entry['key'][:12]}…  CORRUPTED ({entry['size_bytes']} bytes)")
                continue
            config = entry.get("config", {})
            print(
                f"  {entry['key'][:12]}…  {entry.get('name', '?'):<12} "
                f"stack={config.get('stack', '?')} "
                f"duration={config.get('duration', '?')} "
                f"seed={config.get('seed', '?')} "
                f"train/test={entry.get('n_train', '?')}/{entry.get('n_test', '?')} "
                f"({entry['size_bytes'] // 1024} KiB)"
            )
        return 0
    if args.action == "clear":
        removed = cache_mod.clear()
        print(f"removed {removed} entries from {cache_mod.cache_dir()}")
        return 0
    # warm: generate (or verify) the standard suite into the cache.
    suite = standard_suite(
        duration=args.duration,
        n_devices=args.devices,
        n_bytes=args.window,
        seed=args.seed,
        cache=True,
    )
    for name, dataset in suite.items():
        print(dataset.summary())
    print(f"cache dir: {cache_mod.cache_dir()}")
    return 0


def _format_decision(record, controller) -> str:
    """Render one DecisionRecord as an operator-readable match trace."""
    # getattr: records parsed from pre-fleet JSONL dumps (or foreign
    # tooling) may predate the tenant field — degrade, don't crash.
    tenant = getattr(record, "tenant", None)
    lines = [
        f"packet #{record.seq}  t={record.timestamp:.6f}s  "
        f"verdict={record.verdict}"
        + (f"  tenant={tenant}" if tenant is not None else ""),
        "tables consulted: "
        + (" -> ".join(record.tables) if record.tables else "(none)"),
        "key bytes: "
        + "  ".join(
            f"b[{offset}]=0x{value:02x} ({value})"
            for offset, value in zip(record.offsets, record.values)
        ),
    ]
    if record.entry_id is None:
        lines.append(
            f"matched: no entry — default action of table "
            f"{record.tables[-1] if record.tables else '?'!s} applied"
        )
        return "\n".join(lines)
    lines.append(f"matched: table={record.table} entry={record.entry_id}")
    try:
        rule = controller.rule_for_entry(record.entry_id)
    except KeyError:
        lines.append("rule: (entry no longer installed)")
        return "\n".join(lines)
    lines.append(
        f"rule: {rule}  (confidence {rule.confidence:.3f}, "
        f"label {rule.label})"
    )
    if rule.provenance:
        lines.append("tree path: " + " -> ".join(rule.provenance))
    else:
        lines.append("tree path: (hand-written rule — no distillation path)")
    return "\n".join(lines)


def cmd_explain(args) -> int:
    rules = load_ruleset(args.rules)
    if args.index is None:
        from repro.eval.interpret import explain_ruleset

        print(explain_ruleset(rules, stack=args.stack))
        return 0
    # Packet-replay mode: run one packet through a deployed switch with a
    # full-sampling flight recorder and print its provenance trace.
    from repro import obs

    packets, __ = _load_packets(args)
    if not 0 <= args.index < len(packets):
        raise SystemExit(
            f"--index {args.index} out of range 0..{len(packets) - 1}"
        )
    controller = _controller_for(rules, args.table_capacity)
    controller.deploy(rules)
    recorder = obs.FlightRecorder(capacity=1, sample_rate=1.0)
    controller.switch.attach_recorder(recorder)
    controller.switch.process(packets[args.index], seq=args.index)
    print(_format_decision(recorder.records()[0], controller))
    return 0


def cmd_p4(args) -> int:
    rules = load_ruleset(args.rules)
    program = generate_p4_program(
        rules.offsets,
        ruleset=rules if args.const_entries else None,
        table_size=args.table_size,
    )
    Path(args.out).write_text(program, encoding="utf-8")
    print(f"wrote {args.out} ({len(program.splitlines())} lines)")
    return 0


def _controller_for(
    rules, table_capacity: Optional[int] = None
) -> GatewayController:
    capacity = table_capacity or max(
        4096, rules.resource_report()["ternary_entries"]
    )
    return GatewayController.for_ruleset(rules, table_capacity=capacity)


def cmd_simulate(args) -> int:
    if args.batch_size is not None and args.batch_size < 1:
        raise SystemExit("--batch-size must be >= 1")
    rules = load_ruleset(args.rules)
    packets, __ = _load_packets(args)
    controller = _controller_for(rules, args.table_capacity)
    controller.deploy(rules)
    controller.switch.process_trace(packets, batch_size=args.batch_size)
    stats = controller.switch.stats
    print(
        f"{stats.received} packets: {stats.dropped} dropped "
        f"({100 * stats.drop_rate:.1f}%), {stats.allowed} allowed"
    )
    for rule, hits in zip(rules, controller.rule_hit_counts()):
        print(f"  {hits:>8} hits  {rule}")
    return 0


def _serve_config(args, **serve_only):
    """The :class:`~repro.serve.ServeConfig` of the gateway flags
    ``serve`` and ``corpus replay`` share, plus ``serve_only`` settings;
    an out-of-range setting exits with its message."""
    from repro.serve import ServeConfig

    try:
        return ServeConfig(
            n_shards=args.shards,
            max_batch=args.max_batch,
            max_latency=args.max_latency_ms / 1000.0,
            queue_capacity=args.queue_capacity,
            policy=args.policy,
            service_rate=args.service_rate,
            table_capacity=args.table_capacity,
            record_verdicts=False,
            executor=args.executor,
            **serve_only,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))


def _emit_snapshot(args, snapshot, table_lead: str = "\n") -> None:
    """Write a telemetry snapshot to ``--save`` and print it in
    ``--format`` (``summary`` prints nothing more)."""
    from repro import obs

    if args.save:
        obs.write_jsonl(snapshot, args.save)
        print(f"wrote {args.save}", file=sys.stderr)
    if args.format == "jsonl":
        sys.stdout.write(obs.to_jsonl(snapshot))
    elif args.format == "prometheus":
        sys.stdout.write(obs.to_prometheus(snapshot))
    elif args.format == "table":
        print(table_lead + obs.render_table(snapshot))


def cmd_stats(args) -> int:
    """Replay traffic with observability on and dump the metric registry.

    Two modes: with ``--snapshot`` an existing JSONL snapshot (e.g. saved
    by an earlier run via ``--save``) is rendered without replaying
    anything; otherwise the rule set is deployed on a fresh gateway, the
    input trace is replayed with an enabled registry, and the resulting
    snapshot is rendered.  See docs/OBSERVABILITY.md for the catalogue.
    """
    from repro import obs

    if args.snapshot:
        snapshot = obs.read_jsonl(args.snapshot)
    else:
        if not args.rules:
            raise SystemExit("need a rules file (or --snapshot)")
        from repro.eval.harness import replay_gateway

        rules = load_ruleset(args.rules)
        packets, __ = _load_packets(args)
        registry = obs.Registry(enabled=True)
        with obs.use_registry(registry):
            replay_gateway(
                rules,
                packets,
                batch_size=args.batch_size,
                table_capacity=args.table_capacity,
            )
        snapshot = registry.snapshot()
    _emit_snapshot(args, snapshot, table_lead="")
    return 0


def cmd_eval(args) -> int:
    if args.batch_size is not None and args.batch_size < 1:
        raise SystemExit("--batch-size must be >= 1")
    rules = load_ruleset(args.rules)
    packets, labels = _load_packets(args)
    if labels is None:
        raise SystemExit("evaluation requires --labels with --pcap")
    controller = _controller_for(rules, args.table_capacity)
    controller.deploy(rules)
    verdicts = controller.switch.process_trace(packets, batch_size=args.batch_size)
    predictions = np.array([1 if v.dropped else 0 for v in verdicts])
    metrics = binary_metrics(labels, predictions)
    for key, value in metrics.row().items():
        print(f"{key:>10}: {value}")
    return 0


def cmd_serve(args) -> int:
    """Run a timed streaming soak and render the telemetry snapshot.

    The serving counterpart of ``repro stats``: deploy the rule set on a
    sharded :class:`~repro.serve.gateway.StreamingGateway`, feed it a
    packet stream (seeded synthetic traffic at a configurable offered
    load, or a streaming pcap), and report throughput, latency
    percentiles, shed accounting and the full observability snapshot.
    """
    from repro import obs
    from repro.serve import PcapSource, StreamingGateway, SyntheticSource

    if args.rules is None and not args.tenants:
        raise SystemExit("need a rules file (or --tenants)")
    try:
        if args.pcap:
            source = PcapSource(
                args.pcap,
                rate=args.rate,
                loop=args.loop,
                burstiness=args.burstiness,
                seed=args.seed,
            )
        else:
            source = SyntheticSource(
                rate=50_000.0 if args.rate is None else args.rate,
                n_packets=args.packets,
                stack=args.synthetic or "inet",
                burstiness=args.burstiness,
                seed=args.seed,
            )
    except ValueError as exc:
        raise SystemExit(str(exc))
    config = _serve_config(
        args, hash_mode=args.hash_mode, ring_slots=args.ring_slots
    )
    recorder = None
    engine = None
    if args.flight_dump or args.alerts:
        recorder = obs.FlightRecorder(
            args.flight_capacity,
            sample_rate=args.sample_rate,
            seed=args.seed,
        )
    registry = obs.Registry(enabled=True)
    with obs.use_registry(registry):
        alert_rules = obs.default_serve_alerts(
            shed_rate=args.alert_shed_rate,
            batcher_wait_p99=config.max_latency,
        )
        if args.tenants:
            from repro.fleet import FleetGateway, load_fleet_spec

            capacity, specs = load_fleet_spec(
                args.tenants, registry_root=args.registry_root
            )
            if args.fleet_capacity is not None:
                capacity = args.fleet_capacity
            if args.alerts:
                engine = obs.AlertEngine(
                    alert_rules + obs.default_fleet_alerts(),
                    registry=registry,
                    recorder=recorder,
                    dump_path=args.flight_dump,
                )
            try:
                gateway = FleetGateway(
                    specs,
                    config,
                    capacity=capacity,
                    recorder=recorder,
                    alert_engine=engine,
                )
            except ValueError as exc:
                raise SystemExit(f"fleet: {exc}")
        else:
            rules = load_ruleset(args.rules)
            if args.alerts:
                engine = obs.AlertEngine(
                    alert_rules,
                    registry=registry,
                    recorder=recorder,
                    dump_path=args.flight_dump,
                )
            gateway = StreamingGateway(
                rules, config, recorder=recorder, alert_engine=engine
            )
        result = gateway.run(source)
    print(result.summary())
    for alert in result.alerts:
        print(f"  ALERT {alert.message}")
    for name, account in getattr(result, "accounts", {}).items():
        print(
            f"  tenant {name}: band={account.band} v{account.version} "
            f"{account.reason} — entries offered={account.offered} "
            f"installed={account.installed} evicted={account.evicted}"
        )
    if recorder is not None and args.flight_dump:
        recorder.dump(args.flight_dump)
        stats = recorder.stats()
        print(
            f"wrote {args.flight_dump} ({stats['resident']} records: "
            f"{stats['critical']} critical, {stats['permits']} sampled "
            f"permits)",
            file=sys.stderr,
        )
    for row in getattr(result, "per_shard", ()):
        print(
            f"  shard {row['shard']}: {row['processed']} processed, "
            f"{row['shed']} shed, queue high-watermark "
            f"{row['queue_high_watermark']}, verdicts {row['verdicts']}"
        )
    _emit_snapshot(args, registry.snapshot())
    return 0


def cmd_registry(args) -> int:
    """Manage the versioned detector registry (train/list/show/rm)."""
    from repro.fleet import DetectorRegistry, RegistryError

    registry = DetectorRegistry(args.root)
    try:
        if args.registry_command == "train":
            if args.from_rules:
                meta = registry.put(
                    args.device_class,
                    load_ruleset(args.from_rules),
                    note=args.note,
                )
            else:
                meta = registry.train(
                    args.device_class,
                    stack=args.stack,
                    duration=args.duration,
                    n_devices=args.devices,
                    window=args.window,
                    fields=args.fields,
                    seed=args.seed,
                    optimize=args.optimize,
                    note=args.note,
                )
            print(
                f"registered {meta.ref}: {meta.rules} rules, "
                f"{meta.ternary_entries} ternary entries "
                f"(sha256 {meta.digest[:12]})"
            )
        elif args.registry_command == "list":
            artifacts = registry.list(args.device_class)
            if not artifacts:
                print("(registry is empty)")
            for meta in artifacts:
                print(
                    f"{meta.ref:<24} {meta.rules:>5} rules "
                    f"{meta.ternary_entries:>6} entries  {meta.created}"
                    + (f"  {meta.note}" if meta.note else "")
                )
        elif args.registry_command == "show":
            rules, meta = registry.get(args.ref)
            print(f"{meta.ref}  (sha256 {meta.digest})")
            print(f"created {meta.created}")
            if meta.note:
                print(meta.note)
            print(rules.describe())
        elif args.registry_command == "rm":
            removed = registry.rm(args.ref)
            print(f"removed {removed} version(s) of {args.ref}")
    except RegistryError as exc:
        raise SystemExit(str(exc))
    return 0


def cmd_corpus(args) -> int:
    """Build, inspect and endurance-replay on-disk trace corpora."""
    from repro import obs
    from repro.corpus import (
        CorpusError,
        CorpusSpec,
        build_corpus,
        load_manifest,
        replay_corpus,
    )

    try:
        if args.corpus_command == "build":
            spec = CorpusSpec(
                stack=args.stack,
                n_packets=args.packets,
                chunk_packets=args.chunk_packets,
                attack_fraction=args.attack_fraction,
                attack_families=(
                    args.families.split(",") if args.families else None
                ),
                n_devices=args.devices,
                rate=args.rate,
                burstiness=args.burstiness,
                seed=args.seed,
                compress=args.compress,
                window=args.window,
                attack_rate_scale=args.attack_rate_scale,
            )

            def progress(index: int, total: int, meta) -> None:
                print(
                    f"chunk {index + 1}/{total}: {meta.file} "
                    f"({meta.packets} packets, {meta.bytes / 1e6:.1f} MB, "
                    f"sha256 {meta.digest[:12]})",
                    file=sys.stderr,
                )

            import time as _time

            start = _time.perf_counter()
            manifest = build_corpus(
                spec, args.out, force=args.force, progress=progress
            )
            elapsed = _time.perf_counter() - start
            print(manifest.summary())
            print(
                f"built in {elapsed:.1f}s "
                f"({manifest.packets / elapsed:,.0f} pkt/s)"
            )
        elif args.corpus_command == "info":
            manifest = load_manifest(args.root)
            print(manifest.summary())
            if args.chunks:
                for meta in manifest.chunks:
                    classes = ", ".join(
                        f"{name}={count}"
                        for name, count in sorted(meta.classes.items())
                    )
                    print(
                        f"  {meta.file}: {meta.packets} packets "
                        f"[{meta.first_timestamp:.3f}s, "
                        f"{meta.last_timestamp:.3f}s] {classes}"
                    )
        elif args.corpus_command == "replay":
            if args.rules:
                rules = load_ruleset(args.rules)
            else:
                from repro.eval.harness import synthetic_firewall_ruleset

                rules = synthetic_firewall_ruleset(seed=args.seed)
            config = _serve_config(args)
            registry = obs.Registry(enabled=True)
            with obs.use_registry(registry):
                report = replay_corpus(
                    args.root,
                    rules,
                    config,
                    rate=args.rate,
                    burstiness=args.burstiness,
                    seed=args.seed,
                    verify=not args.no_verify,
                    loop=args.loop,
                    swap_after=args.swap_after,
                )
            print(report.summary())
            _emit_snapshot(args, registry.snapshot())
    except CorpusError as exc:
        raise SystemExit(str(exc))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Two-stage learned IoT firewall (ICDCS 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p, labels_required=False):
        p.add_argument("--pcap", help="input pcap file")
        p.add_argument(
            "--labels",
            required=False,
            help="CSV of index,category packet labels",
        )
        p.add_argument(
            "--synthetic",
            choices=["inet", "industrial", "zigbee", "ble"],
            help="use a built-in synthetic trace instead of a pcap",
        )

    train = sub.add_parser("train", help="train and emit a rule set")
    add_input(train)
    train.add_argument("--rules", required=True, help="output rules JSON")
    train.add_argument("--model", help="optional output model .npz")
    train.add_argument("--fields", type=int, default=6, help="field budget k")
    train.add_argument("--window", type=int, default=64, help="byte window")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument(
        "--optimize",
        action="store_true",
        help="merge/shadow-eliminate rules before writing them",
    )
    train.set_defaults(func=cmd_train)

    rules = sub.add_parser("rules", help="inspect a rules JSON file")
    rules.add_argument("rules", help="rules JSON")
    rules.set_defaults(func=cmd_rules)

    explain = sub.add_parser(
        "explain",
        help="operator-readable rule report, or a single packet's full "
        "match trace back to its Stage-2 tree path (--index)",
    )
    explain.add_argument("rules", help="rules JSON")
    explain.add_argument(
        "--stack",
        default="inet",
        choices=["inet", "industrial", "zigbee", "ble"],
        help="header layout used to name byte offsets",
    )
    add_input(explain)
    explain.add_argument(
        "--index",
        type=int,
        default=None,
        help="replay this packet (by trace index) and print its decision "
        "provenance: tables consulted, matched entry, key bytes, rule, "
        "and distillation tree path",
    )
    explain.add_argument(
        "--table-capacity",
        type=int,
        default=None,
        help="firewall table capacity for the replay "
        "(default: fit the rule set, at least 4096)",
    )
    explain.set_defaults(func=cmd_explain)

    synth = sub.add_parser(
        "synth", help="generate a labelled synthetic trace to pcap + CSV"
    )
    synth.add_argument(
        "--stack", default="inet",
        choices=["inet", "industrial", "zigbee", "ble"],
    )
    synth.add_argument("--duration", type=float, default=40.0)
    synth.add_argument("--devices", type=int, default=3)
    synth.add_argument("--seed", type=int, default=7)
    synth.add_argument("--chatter", action="store_true")
    synth.add_argument("--pcap", required=True, help="output pcap path")
    synth.add_argument("--labels", help="output labels CSV path")
    synth.set_defaults(func=cmd_synth)

    cache = sub.add_parser(
        "cache", help="manage the on-disk dataset cache (REPRO_CACHE_DIR)"
    )
    cache.add_argument(
        "action",
        choices=["list", "clear", "warm"],
        help="list entries, delete them, or pre-generate the standard suite",
    )
    cache.add_argument("--duration", type=float, default=40.0)
    cache.add_argument("--devices", type=int, default=3)
    cache.add_argument("--window", type=int, default=64)
    cache.add_argument("--seed", type=int, default=7)
    cache.set_defaults(func=cmd_cache)

    p4 = sub.add_parser("p4", help="emit the P4-16 gateway program")
    p4.add_argument("rules", help="rules JSON")
    p4.add_argument("--out", required=True, help="output .p4 path")
    p4.add_argument(
        "--const-entries",
        action="store_true",
        help="compile the rules as const entries instead of runtime installs",
    )
    p4.add_argument("--table-size", type=int, default=4096)
    p4.set_defaults(func=cmd_p4)

    def add_table_capacity(p, default=None):
        p.add_argument(
            "--table-capacity",
            type=int,
            default=default,
            help="firewall table capacity in ternary entries "
            "(default: fit the rule set, at least 4096)",
        )

    simulate = sub.add_parser("simulate", help="replay traffic through the switch")
    simulate.add_argument("rules", help="rules JSON")
    add_input(simulate)
    simulate.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="replay through the vectorized batch path in chunks of this "
        "size (default: scalar reference path)",
    )
    add_table_capacity(simulate)
    simulate.set_defaults(func=cmd_simulate)

    evaluate = sub.add_parser("eval", help="score a rule set on labelled traffic")
    evaluate.add_argument("rules", help="rules JSON")
    add_input(evaluate)
    evaluate.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="evaluate through the vectorized batch path in chunks of "
        "this size (default: scalar reference path)",
    )
    add_table_capacity(evaluate)
    evaluate.set_defaults(func=cmd_eval)

    def add_serve_flags(p, *, seed, replayed, rate_help):
        """The arrival, gateway and telemetry flags ``serve`` and
        ``corpus replay`` share; ``replayed`` names what ``--loop``
        repeats."""
        p.add_argument("--rate", type=float, default=None, help=rate_help)
        p.add_argument(
            "--burstiness",
            type=float,
            default=1.0,
            help="arrival burst factor for re-timing; 1.0 = Poisson "
            "(default)",
        )
        p.add_argument(
            "--loop",
            type=int,
            default=1,
            help=f"replay the {replayed} this many times (requires --rate)",
        )
        p.add_argument(
            "--shards", type=int, default=1, help="switch workers (default 1)"
        )
        p.add_argument(
            "--executor",
            choices=["inline", "process"],
            default="inline",
            help="classification backend: in-process (default) or one "
            "worker process per shard over shared-memory frame rings",
        )
        p.add_argument(
            "--max-batch",
            type=int,
            default=1024,
            help="adaptive batcher size trigger (default 1024)",
        )
        p.add_argument(
            "--max-latency-ms",
            type=float,
            default=5.0,
            help="batcher deadline in milliseconds of stream time (default 5)",
        )
        p.add_argument(
            "--queue-capacity",
            type=int,
            default=8192,
            help="per-shard bounded queue capacity in packets (default 8192)",
        )
        p.add_argument(
            "--policy",
            choices=["fail-open", "fail-closed"],
            default="fail-closed",
            help="what happens to shed packets (default fail-closed)",
        )
        p.add_argument(
            "--service-rate",
            type=float,
            default=None,
            help="per-shard service capacity in pkts/s of stream time "
            "(default: unconstrained)",
        )
        add_table_capacity(p, default=4096)
        p.add_argument("--seed", type=int, default=seed)
        p.add_argument(
            "--save", help="also write the telemetry snapshot to this JSONL file"
        )
        p.add_argument(
            "--format",
            choices=["summary", "table", "jsonl", "prometheus"],
            default="summary",
            help="telemetry output beyond the run summary (default: none)",
        )

    serve = sub.add_parser(
        "serve",
        help="run a timed streaming soak through the sharded gateway",
    )
    serve.add_argument(
        "rules", nargs="?", help="rules JSON (omit with --tenants)"
    )
    add_input(serve)
    add_serve_flags(
        serve,
        seed=7,
        replayed="pcap",
        rate_help="offered load in pkts/s (synthetic default 50000; a pcap "
        "keeps its capture clock unless set)",
    )
    serve.add_argument(
        "--tenants",
        help="multi-tenant fleet mode: JSON fleet spec naming each "
        "tenant's rule set (path or registry ref), band, quota and "
        "source prefix — see docs/OPERATIONS.md",
    )
    serve.add_argument(
        "--fleet-capacity",
        type=int,
        default=None,
        help="shared table budget in ternary entries (overrides the "
        "spec; default: fit every declared tenant)",
    )
    serve.add_argument(
        "--registry-root",
        default=None,
        help="detector registry directory for registry refs in the "
        "fleet spec",
    )
    serve.add_argument(
        "--packets",
        type=int,
        default=50_000,
        help="synthetic stream length (default 50000)",
    )
    serve.add_argument(
        "--ring-slots",
        type=int,
        default=8,
        help="frame/result ring depth per worker for --executor process "
        "(default 8)",
    )
    serve.add_argument(
        "--hash-mode",
        choices=["bytes", "flow"],
        default="bytes",
        help="flow-to-shard hash (default: byte-region CRC)",
    )
    serve.add_argument(
        "--alerts",
        action="store_true",
        help="evaluate the default SLO alert rules (shed rate, drift, "
        "batcher-wait p99, table occupancy) periodically during the soak",
    )
    serve.add_argument(
        "--alert-shed-rate",
        type=float,
        default=0.01,
        help="shed-rate alert threshold as a fraction of offered packets "
        "(default 0.01)",
    )
    serve.add_argument(
        "--flight-dump",
        help="attach a decision flight recorder and write its records to "
        "this JSONL file (auto-dumped when an alert fires, and again at "
        "the end of the run)",
    )
    serve.add_argument(
        "--flight-capacity",
        type=int,
        default=65536,
        help="flight recorder ring capacity in records (default 65536)",
    )
    serve.add_argument(
        "--sample-rate",
        type=float,
        default=0.01,
        help="fraction of allow verdicts the flight recorder head-samples "
        "(drops/sheds are always kept; default 0.01)",
    )
    serve.set_defaults(func=cmd_serve)

    registry_p = sub.add_parser(
        "registry",
        help="manage the versioned train-once detector registry",
    )
    registry_p.add_argument(
        "--root",
        default=".registry",
        help="registry directory (default .registry)",
    )
    rsub = registry_p.add_subparsers(dest="registry_command", required=True)
    rtrain = rsub.add_parser(
        "train",
        help="train (or import with --from-rules) a new detector version",
    )
    rtrain.add_argument("device_class", help="device class / tenant name")
    rtrain.add_argument(
        "--from-rules",
        help="register an existing rules JSON instead of training",
    )
    rtrain.add_argument(
        "--stack",
        choices=["inet", "industrial", "zigbee", "ble"],
        default="inet",
        help="synthetic trace stack to train on (default inet)",
    )
    rtrain.add_argument("--duration", type=float, default=40.0,
                        help="trace duration in seconds (default 40)")
    rtrain.add_argument("--devices", type=int, default=3,
                        help="devices in the trace (default 3)")
    rtrain.add_argument("--window", type=int, default=64,
                        help="classification byte window (default 64)")
    rtrain.add_argument("--fields", type=int, default=6,
                        help="match fields to select (default 6)")
    rtrain.add_argument("--seed", type=int, default=0)
    rtrain.add_argument("--optimize", action="store_true",
                        help="run the rule-set optimiser before registering")
    rtrain.add_argument("--note", default="",
                        help="free-form annotation stored with the version")
    rtrain.set_defaults(func=cmd_registry)
    rlist = rsub.add_parser("list", help="list registered detector versions")
    rlist.add_argument("device_class", nargs="?",
                       help="restrict to one device class")
    rlist.set_defaults(func=cmd_registry)
    rshow = rsub.add_parser(
        "show", help="show one artifact (cls, cls@N, or cls@latest)"
    )
    rshow.add_argument("ref", help="registry reference")
    rshow.set_defaults(func=cmd_registry)
    rrm = rsub.add_parser(
        "rm", help="delete one version (cls@N) or a whole class (cls)"
    )
    rrm.add_argument("ref", help="registry reference")
    rrm.set_defaults(func=cmd_registry)

    corpus_p = sub.add_parser(
        "corpus",
        help="build, inspect and endurance-replay on-disk trace corpora",
    )
    csub = corpus_p.add_subparsers(dest="corpus_command", required=True)
    cbuild = csub.add_parser(
        "build",
        help="synthesize a chunked mixed attack/benign corpus to disk",
    )
    cbuild.add_argument("out", help="corpus output directory")
    cbuild.add_argument(
        "--packets",
        type=int,
        default=1_000_000,
        help="total corpus size in packets (default 1000000)",
    )
    cbuild.add_argument(
        "--chunk-packets",
        type=int,
        default=200_000,
        help="packets per chunk file (default 200000)",
    )
    cbuild.add_argument(
        "--stack",
        choices=["inet", "industrial", "zigbee", "ble"],
        default="inet",
        help="protocol stack for device and attack models (default inet)",
    )
    cbuild.add_argument(
        "--attack-fraction",
        type=float,
        default=0.5,
        help="fraction of packets drawn from attack families (default 0.5)",
    )
    cbuild.add_argument(
        "--families",
        default=None,
        help="comma-separated attack categories (default: every family "
        "registered for the stack)",
    )
    cbuild.add_argument(
        "--devices",
        type=int,
        default=4,
        help="benign devices per device model (default 4)",
    )
    cbuild.add_argument(
        "--rate",
        type=float,
        default=50_000.0,
        help="recorded arrival rate in pkts/s of stream time "
        "(default 50000)",
    )
    cbuild.add_argument(
        "--burstiness",
        type=float,
        default=4.0,
        help="arrival burst factor (default 4.0)",
    )
    cbuild.add_argument("--seed", type=int, default=7)
    cbuild.add_argument(
        "--compress",
        action="store_true",
        help="write gzip chunks (chunk-*.pcap.gz); digests stay those of "
        "the uncompressed bytes",
    )
    cbuild.add_argument(
        "--window",
        type=float,
        default=120.0,
        help="seconds of model time generated per pool refill; wider is "
        "faster but holds more packets in memory (default 120)",
    )
    cbuild.add_argument(
        "--attack-rate-scale",
        type=float,
        default=20.0,
        help="multiply each attack family's native packet rate "
        "(default 20)",
    )
    cbuild.add_argument(
        "--force",
        action="store_true",
        help="overwrite an existing corpus in the output directory",
    )
    cbuild.set_defaults(func=cmd_corpus)
    cinfo = csub.add_parser(
        "info", help="print a corpus manifest summary"
    )
    cinfo.add_argument("root", help="corpus directory or manifest.json")
    cinfo.add_argument(
        "--chunks",
        action="store_true",
        help="also list per-chunk packet counts, spans and class mixes",
    )
    cinfo.set_defaults(func=cmd_corpus)
    creplay = csub.add_parser(
        "replay",
        help="endurance-replay a corpus through the streaming gateway",
    )
    creplay.add_argument("root", help="corpus directory or manifest.json")
    creplay.add_argument(
        "rules",
        nargs="?",
        help="rules JSON (default: deterministic synthetic soak rule set)",
    )
    add_serve_flags(
        creplay,
        seed=0,
        replayed="corpus",
        rate_help="re-time to this offered load in pkts/s (default: corpus "
        "arrival clock)",
    )
    creplay.add_argument(
        "--no-verify",
        action="store_true",
        help="skip in-flight sha256 digest verification",
    )
    creplay.add_argument(
        "--swap-after",
        type=int,
        default=None,
        help="fire one timed drift→retrain→swap after this many serviced "
        "packets",
    )
    creplay.set_defaults(func=cmd_corpus)

    stats = sub.add_parser(
        "stats",
        help="replay with observability on and dump the metric registry",
    )
    stats.add_argument("rules", nargs="?", help="rules JSON")
    add_input(stats)
    stats.add_argument(
        "--batch-size",
        type=int,
        default=1024,
        help="vectorized replay chunk size (default 1024)",
    )
    add_table_capacity(stats, default=4096)
    stats.add_argument(
        "--snapshot",
        help="render a previously saved JSONL snapshot instead of replaying",
    )
    stats.add_argument(
        "--save", help="also write the snapshot to this JSONL file"
    )
    stats.add_argument(
        "--format",
        choices=["table", "jsonl", "prometheus"],
        default="table",
        help="output format (default: aligned table)",
    )
    stats.set_defaults(func=cmd_stats)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
