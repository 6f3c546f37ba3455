"""Timed phases of one workload run, measured from outside the program.

Every timing here wraps a public call of ``repro`` from this directory:
``gateway.run`` for the closed loop, ``Switch.process_batch`` (patched
at class level, one clock read per batch) for open-loop latency, and
``ShardSet.install`` for swaps.  Nothing under ``src/`` is modified.

Correctness is accounted per packet.  The check pass serves every base
packet once with ``record_verdicts=True``; a seeded sample of its
verdicts is compared with the scalar oracle ``Switch.process``.  Every
timed run must then reproduce the switch counts the check pass implies
for the packets it served, with ``offered == processed + shed``.  Swap
runs keep their batches, and each batch is re-classified by a freshly
deployed reference switch of the rule set that was live when it was
served.
"""

from __future__ import annotations

import array
import contextlib
import dataclasses
import inspect
import math
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.serialize import load_ruleset, save_ruleset
from repro.dataplane import GatewayController, Switch
from repro.serve import ShardSet, StreamingGateway, retime

from workloads import SATURATING_RATE, Workload

#: Scalar-oracle sample: packets of the deployed rule set, and of its
#: swap partner (which only verifies swap batches).
ORACLE_SAMPLE = 1000
ORACLE_SAMPLE_ALT = 250
#: Closed-loop runs per workload, at least, whatever the budget.
MIN_CLOSED_RUNS = 5
#: Set-up repetitions: at least MIN_SETUPS, more while their total is
#: under SETUP_SECONDS, so sub-millisecond set-ups still get a median.
MIN_SETUPS = 3
MAX_SETUPS = 1000
SETUP_SECONDS = 1.0
#: Windows the open-loop phase is cut into for latency_p99_ms.
LATENCY_WINDOWS = 16
#: Seconds one HostClock slice takes on the host the baseline in
#: bench/README.md was measured on.
REFERENCE_SLICE = 0.033
CODES = {"allow": 0, "drop": 1, "quarantine": 2}
COUNT_FIELDS = ("allowed", "dropped", "quarantined")


@contextlib.contextmanager
def patched(owner, attr: str, make_wrapper: Callable):
    """Replace ``owner.attr`` with ``make_wrapper(original)`` for a scope.

    Static methods stay static; the original is restored exactly.
    """
    original = inspect.getattr_static(owner, attr)
    static = isinstance(original, staticmethod)
    wrapper = make_wrapper(original.__func__ if static else original)
    setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class HostClock:
    """How fast this host runs right now, from a fixed reference loop.

    Neighbours on a shared host slow every process on it by up to ~20%
    for tens of seconds at a time, and CPU time slows with wall time, so
    neither clock alone separates the program's speed from the host's.
    The loop below uses no ``repro`` code; timing it between phases and
    dividing by :data:`REFERENCE_SLICE` gives the host's slowdown, and
    pure-work timings (throughput, set-up, swaps) are reported at the
    reference speed.  No change to the program can move this factor.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._keys = rng.integers(0, 256, (1024, 6), dtype=np.uint8)
        self.slices: List[float] = []

    def tick(self, count: int = 1) -> None:
        for __ in range(count):
            start = time.perf_counter()
            total = 0
            for i in range(20_000):
                total += i * i
            for __ in range(20):
                (self._keys[:, None, :] == self._keys[None, :64, :]).all(-1).sum()
            self.slices.append(time.perf_counter() - start)

    @property
    def slowdown(self) -> float:
        """Median slice time over the reference; > 1 on a slower host."""
        return float(np.median(self.slices)) / REFERENCE_SLICE


# -- correctness ---------------------------------------------------------------


@dataclasses.dataclass
class Reference:
    """Per-base-packet verdict codes and sizes from the check pass."""

    codes: np.ndarray
    sizes: np.ndarray
    oracle_checked: int
    oracle_mismatches: int

    def expected(self, index: np.ndarray) -> Dict[str, int]:
        """Switch counts for serving the base packets at ``index``."""
        codes = self.codes[index]
        sizes = self.sizes[index]
        return {
            "received": int(len(index)),
            "allowed": int((codes == 0).sum()),
            "dropped": int((codes == 1).sum()),
            "quarantined": int((codes == 2).sum()),
            "bytes_received": int(sizes.sum()),
            "bytes_dropped": int(sizes[codes == 1].sum()),
            "bytes_quarantined": int(sizes[codes == 2].sum()),
        }


@dataclasses.dataclass
class Ledger:
    """Packets attempted and failed across the run's timed phases."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = dataclasses.field(default_factory=list)

    def fail(self, count: int, note: str) -> None:
        if count:
            self.failed += int(count)
            self.notes.append(note)

    def account(self, label: str, result, expected: Optional[Dict[str, int]]) -> None:
        """Charge one run: sheds, lost packets, and count mismatches."""
        self.attempted += result.offered
        self.fail(result.shed, f"{label}: {result.shed} packets shed")
        lost = result.offered - result.processed - result.shed
        self.fail(abs(lost), f"{label}: offered != processed + shed ({lost})")
        if expected is None:
            return
        actual = dataclasses.asdict(result.stats)
        moved = sum(abs(actual[f] - expected[f]) for f in COUNT_FIELDS)
        wrong = -(-moved // 2)
        if not wrong and actual != expected:
            wrong = 1
        self.fail(wrong, f"{label}: switch counts {actual} != expected {expected}")


def codes_of(verdicts) -> np.ndarray:
    return np.fromiter((CODES[v.action] for v in verdicts), dtype=np.int8)


def deployed_switch(rules, table_capacity: int) -> Switch:
    controller = GatewayController.for_ruleset(rules, table_capacity=table_capacity)
    controller.deploy(rules)
    return controller.switch


def oracle_mismatches(switch: Switch, packets: Sequence, codes: np.ndarray) -> int:
    return sum(
        int(CODES[switch.process(packet).action] != code)
        for packet, code in zip(packets, codes)
    )


def check_pass(
    workload: Workload,
    gateway: StreamingGateway,
    reference_switch: Switch,
    alt_switch: Switch,
    rng: np.random.Generator,
) -> Reference:
    """Serve every base packet once, recording verdicts; oracle-check a sample.

    ``reference_switch`` holds a fresh deployment of the workload's
    rules and ``alt_switch`` of the swap partner; both answer the scalar
    oracle.
    """
    n = workload.base_count
    sample = np.sort(rng.choice(n, size=min(ORACLE_SAMPLE, n), replace=False))
    wanted = set(sample.tolist())
    kept: Dict[int, object] = {}
    sizes = array.array("q")

    def tap(stream):
        for position, packet in enumerate(stream):
            sizes.append(len(packet.data))
            if position in wanted:
                kept[position] = packet
            yield packet

    if workload.base is not None:
        stream = retime(workload.base, rate=SATURATING_RATE, seed=0)
    else:
        stream = workload.closed.make()
    config = gateway.config
    gateway.config = dataclasses.replace(config, record_verdicts=True)
    try:
        result = gateway.run(tap(stream))
    finally:
        gateway.config = config
    codes = codes_of(result.verdicts)
    if len(codes) != n:
        raise RuntimeError(f"check pass served {len(codes)} of {n} base packets")
    sampled = [kept[i] for i in sample]
    mismatches = oracle_mismatches(reference_switch, sampled, codes[sample])
    alt = sample[: min(ORACLE_SAMPLE_ALT, len(sample))]
    alt_packets = sampled[: len(alt)]
    alt_codes = codes_of(alt_switch.process_batch(alt_packets))
    mismatches += oracle_mismatches(alt_switch, alt_packets, alt_codes)
    return Reference(
        codes=codes,
        sizes=np.frombuffer(sizes, dtype=np.int64).copy(),
        oracle_checked=len(sample) + len(alt),
        oracle_mismatches=mismatches,
    )


def detect_f1(codes: np.ndarray, labels: np.ndarray) -> float:
    predicted = codes == 1
    attack = labels.astype(bool)
    true_positive = int((predicted & attack).sum())
    denominator = int(predicted.sum() + attack.sum())
    return 2.0 * true_positive / denominator if denominator else 0.0


# -- set-up --------------------------------------------------------------------


def setup_phase(workload: Workload, rules_path) -> Tuple[List[float], StreamingGateway, StreamingGateway]:
    """Time ``load_ruleset`` + ``StreamingGateway`` several times.

    Returns the set-up times, the first gateway built (kept as a fresh
    reference deployment) and the last (the one that serves).
    """
    save_ruleset(workload.rules, rules_path)
    times: List[float] = []
    first = gateway = None
    while len(times) < MIN_SETUPS or (sum(times) < SETUP_SECONDS and len(times) < MAX_SETUPS):
        start = time.perf_counter()
        rules = load_ruleset(rules_path)
        gateway = StreamingGateway(rules, workload.config)
        times.append(time.perf_counter() - start)
        if first is None:
            first = gateway
    return times, first, gateway


# -- swaps -----------------------------------------------------------------------


class SwapHook:
    """Retrain hook alternating two rule sets every ``every`` packets.

    With ``keep`` set, each served batch is kept with the index of the
    rule set that classified it, for verification after the run.
    """

    def __init__(self, rule_sets, every: int):
        self.rule_sets = rule_sets
        self.every = every
        self.keep = False
        self.reset()

    def reset(self) -> None:
        self.active = 0
        self.served = 0
        self.batches: List[Tuple[list, list, int]] = []

    def __call__(self, packets, verdicts):
        if self.keep:
            self.batches.append((packets, verdicts, self.active))
        self.served += len(packets)
        if self.served < self.every:
            return None
        self.served = 0
        self.active ^= 1
        return self.rule_sets[self.active]


@contextlib.contextmanager
def operator_mode(gateway: StreamingGateway, hook: Optional[SwapHook], *, seed: int):
    """Serve as ``repro serve --alerts --flight-dump`` does, plus ``hook``.

    Attaches a flight recorder (65,536 slots, 1% allow sampling) and the
    default serve alert engine for the scope.
    """
    recorder = obs.FlightRecorder(65_536, sample_rate=0.01, seed=seed)
    engine = obs.AlertEngine(
        obs.default_serve_alerts(batcher_wait_p99=gateway.config.max_latency),
        recorder=recorder,
    )
    for shard in gateway.shards:
        shard.switch.attach_recorder(recorder, shard=shard.index)
    gateway.recorder, gateway.alert_engine, gateway.retrain_hook = recorder, engine, hook
    try:
        yield recorder
    finally:
        for shard in gateway.shards:
            shard.switch.attach_recorder(None)
        gateway.recorder = gateway.alert_engine = gateway.retrain_hook = None


@contextlib.contextmanager
def timed_installs(rule_sets, out: List[Tuple[int, float]]):
    """Record ``(target rule set index, seconds)`` for each ShardSet.install."""

    def make(original):
        def install(self, rules):
            start = time.perf_counter()
            original(self, rules)
            out.append((0 if rules is rule_sets[0] else 1, time.perf_counter() - start))

        return install

    with patched(ShardSet, "install", make):
        yield


def swap_ms(runs: Sequence["ClosedRun"]) -> float:
    """Mean over the two swap directions of each one's median install, ms."""
    by_target: Dict[int, List[float]] = {}
    for run in runs:
        for target, seconds in run.installs:
            by_target.setdefault(target, []).append(seconds)
    medians = [float(np.median(times)) for times in by_target.values()]
    return 1e3 * sum(medians) / len(medians)


def verify_swaps(hook: SwapHook, switches: Sequence[Switch]) -> Tuple[int, int]:
    """Re-classify kept swap batches; returns (packets checked, mismatches)."""
    checked = mismatches = 0
    for packets, verdicts, active in hook.batches:
        expected = switches[active].process_batch(packets)
        checked += len(packets)
        mismatches += sum(a.action != b.action for a, b in zip(verdicts, expected))
    return checked, mismatches


# -- closed loop -----------------------------------------------------------------


@dataclasses.dataclass
class ClosedRun:
    result: object
    wall: float
    traced: bool = False
    records: int = 0        # flight-recorder records written during the run
    installs: List[Tuple[int, float]] = dataclasses.field(default_factory=list)

    @property
    def pps(self) -> float:
        return self.result.processed / self.wall


def closed_run(gateway: StreamingGateway, source) -> ClosedRun:
    start = time.perf_counter()
    result = gateway.run(source)
    return ClosedRun(result, time.perf_counter() - start)


# -- open loop -----------------------------------------------------------------


class PacedSource:
    """Release each packet when its own stamp comes due in wall time.

    Busy-waits (no sleeping: the gateway runs in this thread), stops
    after ``horizon`` seconds of stamps, and logs each packet's due time
    and how late it was released.
    """

    def __init__(self, packets, horizon: float):
        self.packets = packets
        self.horizon = horizon
        self.due = array.array("d")
        self.late = array.array("d")

    def __iter__(self):
        clock = time.perf_counter
        log_due, log_late = self.due.append, self.late.append
        first = origin = None
        for packet in self.packets:
            stamp = packet.timestamp
            if first is None:
                first, origin = stamp, clock()
            elif stamp - first > self.horizon:
                return
            due = origin + (stamp - first)
            now = clock()
            while now < due:
                now = clock()
            log_due(due)
            log_late(now - due)
            yield packet


@dataclasses.dataclass
class PacedRun:
    result: object
    latency: np.ndarray   # seconds, per packet, due time -> verdict (inf if shed)
    late: np.ndarray      # seconds the generator released each packet late


def paced_run(gateway: StreamingGateway, packets, horizon: float) -> PacedRun:
    """One open-loop run; latency is stamped per ``process_batch`` return."""
    source = PacedSource(packets, horizon)
    done: List[Tuple[Sequence[int], float]] = []

    def make(original):
        def process_batch(self, *args, **kwargs):
            verdicts = original(self, *args, **kwargs)
            done.append((kwargs["seqs"], time.perf_counter()))
            return verdicts

        return process_batch

    with patched(Switch, "process_batch", make):
        result = gateway.run(source)
    due = np.frombuffer(source.due, dtype=np.float64)
    # A packet that never got a verdict (shed) misses every latency limit.
    finished = np.full(len(due), np.inf)
    for seqs, stamp in done:
        finished[np.asarray(seqs, dtype=np.int64)] = stamp
    return PacedRun(
        result=result,
        latency=finished - due,
        late=np.frombuffer(source.late, dtype=np.float64).copy(),
    )


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    values = [float(v) for v in values]
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def p99(values: np.ndarray) -> float:
    return float(np.percentile(values, 99)) if len(values) else math.nan


def windowed_p99(latency: np.ndarray) -> float:
    """Median over LATENCY_WINDOWS equal arrival-order windows of each p99.

    One collector pause or host stall moves one window's p99, not the
    median of all of them; the whole-phase p99 is reported beside it.
    """
    windows = np.array_split(latency, LATENCY_WINDOWS)
    return float(np.median([np.percentile(w, 99) for w in windows]))
