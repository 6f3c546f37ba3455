"""Inputs of the serve-path benchmark's four workloads.

Everything here runs before any timing starts.  A workload's packets,
arrival stamps and corpus are a pure function of the run seed; its rule
tables are not.  Table size sets the classifier's cost, and learned rule
sets range from 0.6k to 2.9k ternary entries across training seeds, so
the model and the synthetic tables come from fixed seeds and the run
seed varies the traffic instead.  Without that, the seed-to-seed spread
of every timing would be the spread of table sizes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from pathlib import Path
from typing import Callable, Iterable, List, Optional

import numpy as np

from repro.core.pipeline import DetectorConfig, TwoStageDetector
from repro.core.rules import RuleSet
from repro.core.serialize import ruleset_to_dict
from repro.corpus import CorpusSource, CorpusSpec, build_corpus
from repro.datasets import TraceConfig, generate_trace, make_dataset
from repro.eval.harness import synthetic_firewall_ruleset
from repro.net.packet import Packet
from repro.serve import ServeConfig, retime

WORKLOADS = ("learned_rules", "wide_table", "pcap_sharded", "rule_swap")

#: Trace and detector seed of the learned model: 11 rules, 1,076 ternary
#: entries, near the paper's deployment (12 rules, 1,117 entries).  Its
#: depth-5 distillation (8 rules, 600 entries) is the swap partner.
MODEL_SEED = 17
#: Saturating stamp rate: 1,024 packets arrive in ~1 ms, well inside the
#: 5 ms deadline, so every closed-loop flush is a size-trigger flush.
SATURATING_RATE = 1_000_000.0
#: Lowest acceptable F1 of drop verdicts on the learned workloads.
F1_FLOOR = 0.95


@dataclasses.dataclass
class Source:
    """A packet stream that can be replayed, and what it is made of.

    ``index(n)`` gives the base-packet position of each of the first
    ``n`` packets the stream yields; the check pass's per-base-packet
    verdicts then give every run's expected switch counts.
    """

    make: Callable[[], Iterable[Packet]]
    index: Callable[[int], np.ndarray]


@dataclasses.dataclass
class Workload:
    """One workload's inputs, all built before timing starts.

    Attributes:
        rules / alt_rules: the deployed rule set and its swap partner;
            both share offsets, so swaps take the incremental
            ``GatewayController.update`` path.
        config: the serve configuration (``repro serve`` defaults).
        base: the distinct packets every stream is made of (``None``
            for the on-disk corpus, which the check pass streams).
        base_count: number of distinct packets.
        labels: 1 for attack traffic, per base packet (learned only).
        closed: the saturating stream the closed loop replays.
        paced: the open-loop stream, Poisson (bursty for the corpus).
        swaps: the stream the swap phase replays.
        swap_every: packets served between two rule swaps.
        operator: serve every phase with the flight recorder and alert
            engine attached and swap in the closed loop (``rule_swap``).
    """

    name: str
    rules: RuleSet
    alt_rules: RuleSet
    config: ServeConfig
    base: Optional[List[Packet]]
    base_count: int
    labels: Optional[np.ndarray]
    closed: Source
    paced: Source
    swaps: Source
    swap_every: int
    operator: bool
    digest: str


def _tiled_index(rng: np.random.Generator, n_base: int, length: int) -> np.ndarray:
    """``length`` base positions: whole shuffled copies of the base set."""
    copies = -(-length // n_base)
    return np.concatenate([rng.permutation(n_base) for __ in range(copies)])[:length]


def _stamped(base: List[Packet], index: np.ndarray, *, rate: float, seed: int) -> List[Packet]:
    return list(retime((base[i] for i in index), rate=rate, seed=seed))


def _memory_source(packets: List[Packet], index: np.ndarray) -> Source:
    return Source(make=lambda: packets, index=lambda n: index[:n])


def _learned_model(smoke: bool):
    dataset = make_dataset(
        "inet",
        TraceConfig(stack="inet", duration=60.0, n_devices=4, seed=MODEL_SEED),
        cache=False,
    )
    detector = TwoStageDetector(DetectorConfig(n_fields=6, seed=MODEL_SEED))
    detector.fit(dataset.x_train, dataset.y_train_binary)
    rules = detector.generate_rules(max_depth=6)
    alt = detector.generate_rules(max_depth=5)
    base = list(dataset.test_packets)
    labels = dataset.y_test_binary
    if smoke:
        base, labels = base[:512], labels[:512]
    return rules, alt, base, labels


def _wide_rules(n_rules: int):
    """``n_rules`` synthetic drop rules and a partner with the last
    sixteenth replaced, so a swap removes and adds the same amount
    either way."""
    rules = synthetic_firewall_ruleset(n_rules=n_rules, fields_per_rule=2, seed=0)
    other = synthetic_firewall_ruleset(n_rules=n_rules, fields_per_rule=2, seed=1)
    keep = n_rules - n_rules // 16
    alt = RuleSet(rules.offsets, default_action=rules.default_action)
    for rule in rules.rules[:keep] + other.rules[keep:]:
        alt.add(rule)
    return rules, alt


def _digest(*parts) -> str:
    sha = hashlib.sha256()
    for part in parts:
        if isinstance(part, RuleSet):
            part = json.dumps(ruleset_to_dict(part), sort_keys=True).encode()
        elif isinstance(part, np.ndarray):
            part = part.tobytes()
        elif isinstance(part, list):
            for packet in part:
                sha.update(packet.data)
                sha.update(np.float64(packet.timestamp).tobytes())
            continue
        sha.update(part)
    return sha.hexdigest()


def _in_memory(
    name: str,
    rules: RuleSet,
    alt: RuleSet,
    base: List[Packet],
    labels: Optional[np.ndarray],
    *,
    seed: int,
    config: ServeConfig,
    closed_len: int,
    paced_rate: float,
    paced_seconds: float,
    swap_len: int,
    swap_every: int,
    operator: bool,
) -> Workload:
    rng = np.random.default_rng([seed, 1])
    closed_index = _tiled_index(rng, len(base), closed_len)
    closed = _stamped(base, closed_index, rate=SATURATING_RATE, seed=seed)
    paced_index = _tiled_index(rng, len(base), int(paced_rate * paced_seconds) + 1)
    paced = _stamped(base, paced_index, rate=paced_rate, seed=seed + 1)
    return Workload(
        name=name,
        rules=rules,
        alt_rules=alt,
        config=config,
        base=base,
        base_count=len(base),
        labels=labels,
        closed=_memory_source(closed, closed_index),
        paced=_memory_source(paced, paced_index),
        swaps=_memory_source(closed[:swap_len], closed_index[:swap_len]),
        swap_every=swap_every,
        operator=operator,
        digest=_digest(rules, alt, base, closed, paced),
    )


def build(name: str, seed: int, *, paced_seconds: float, smoke: bool, workdir: Path) -> Workload:
    """Generate one workload's inputs from ``seed``.

    Args:
        paced_seconds: length of the open-loop phase; sizes its stream.
        smoke: tiny sizes for the self-test.
        workdir: scratch directory for files the workload writes (the
            on-disk corpus).
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r} (known: {', '.join(WORKLOADS)})")
    batch = ServeConfig().max_batch
    if name in ("learned_rules", "rule_swap"):
        rules, alt, base, labels = _learned_model(smoke)
        swap = name == "rule_swap"
        closed_len = (4 if smoke else 40) * batch if swap else (2 if smoke else 16) * batch
        return _in_memory(
            name, rules, alt, base, labels,
            seed=seed,
            config=ServeConfig(record_verdicts=False),
            closed_len=closed_len,
            paced_rate=15_000.0,
            paced_seconds=paced_seconds,
            swap_len=closed_len,
            # rule_swap swaps every 10 batches (4 swaps a run); elsewhere
            # one batch is served between installs, so the phase times
            # installs.
            swap_every=(1 if smoke else 10) * batch if swap else batch,
            operator=swap,
        )
    if name == "wide_table":
        rules, alt = _wide_rules(32 if smoke else 256)
        base = generate_trace(
            TraceConfig(
                stack="inet",
                duration=10.0 if smoke else 60.0,
                n_devices=2 if smoke else 4,
                seed=seed,
            )
        )
        return _in_memory(
            name, rules, alt, base, None,
            seed=seed,
            config=ServeConfig(table_capacity=8192, record_verdicts=False),
            closed_len=(2 if smoke else 6) * batch,
            paced_rate=3_000.0,
            paced_seconds=paced_seconds,
            swap_len=(2 if smoke else 4) * batch,
            swap_every=batch,
            operator=False,
        )
    return _pcap_sharded(seed, smoke=smoke, workdir=workdir)


def _pcap_sharded(seed: int, *, smoke: bool, workdir: Path) -> Workload:
    rules = synthetic_firewall_ruleset(n_rules=6, fields_per_rule=1, seed=0)
    alt = synthetic_firewall_ruleset(n_rules=6, fields_per_rule=1, seed=1)
    n_packets = 8_000 if smoke else 200_000
    root = workdir / "corpus"
    manifest = build_corpus(
        CorpusSpec(
            n_packets=n_packets,
            chunk_packets=n_packets // 4,
            window=10.0 if smoke else 120.0,
            rate=SATURATING_RATE,
            burstiness=4.0,
            seed=seed,
        ),
        root,
        force=True,
    )
    paced_rate = 40_000.0
    swap_len = 4 * 1024 if smoke else 32 * 1024

    def cycle(n: int) -> np.ndarray:
        return np.arange(n) % n_packets

    return Workload(
        name="pcap_sharded",
        rules=rules,
        alt_rules=alt,
        config=ServeConfig(n_shards=2, record_verdicts=False),
        base=None,
        base_count=n_packets,
        labels=None,
        closed=Source(make=lambda: CorpusSource(root), index=cycle),
        paced=Source(
            make=lambda: CorpusSource(
                root, rate=paced_rate, burstiness=4.0, seed=seed, loop=2
            ),
            index=cycle,
        ),
        swaps=Source(
            make=lambda: itertools.islice(CorpusSource(root), swap_len),
            index=cycle,
        ),
        swap_every=1024,
        operator=False,
        digest=_digest(
            rules, alt, "".join(c.digest for c in manifest.chunks).encode()
        ),
    )
