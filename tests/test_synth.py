"""Batch synthesis layer: PackPlan, FrameEmitter backends, trace identity.

The fast (vectorised) backend must be byte-for-byte interchangeable with
the scalar reference backend — these tests lock that differential, plus
the PackPlan-vs-``HeaderSpec.pack`` contract underneath it, plus the
throughput claim (``perf`` marker).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.datasets import TraceConfig, generate_trace
from repro.net.packplan import PackPlan, plan_for
from repro.net.protocols import inet
from repro.net.synth import (
    FrameEmitter,
    arrival_chain,
    fastpath,
    fastpath_enabled,
    poisson_times,
    random_mac_matrix,
    random_payloads,
    spoofed_ip_matrix,
    stamped_payloads,
    uniform_chain,
)

ALL_SPECS = [
    inet.ETHERNET,
    inet.IPV4,
    inet.IPV6,
    inet.TCP,
    inet.UDP,
    inet.ICMP,
    inet.ARP,
]


def assert_packets_identical(fast, scalar):
    assert len(fast) == len(scalar)
    for f, s in zip(fast, scalar):
        assert f.data == s.data
        assert f.timestamp == s.timestamp
        assert f.label == s.label


# -- PackPlan vs the scalar reference serialiser ------------------------------


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_packplan_matches_reference_pack(spec):
    rng = np.random.default_rng(3)
    n = 64
    columns = {}
    for field in spec.fields:
        if field.width_bits > 64:
            width = field.width_bits // 8
            columns[field.name] = rng.integers(
                0, 256, size=(n, width), dtype=np.uint8
            )
        else:
            high = min(field.max_value, 2**63 - 1)
            columns[field.name] = rng.integers(
                0, high, size=n, dtype=np.int64, endpoint=True
            )
    batch = plan_for(spec).pack_batch(n, columns)
    assert batch.shape == (n, spec.size_bytes)
    for row in range(n):
        values = {}
        for name, col in columns.items():
            values[name] = (
                col[row].tobytes() if col.ndim == 2 else int(col[row])
            )
        assert batch[row].tobytes() == spec.pack(values)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_packplan_scalar_broadcast_matches(spec):
    """Scalar (broadcast) values render like n identical reference packs."""
    rng = np.random.default_rng(5)
    values = {
        f.name: int(rng.integers(0, min(f.max_value, 2**63 - 1), endpoint=True))
        for f in spec.fields
        if f.width_bits <= 64
    }
    for f in spec.fields:
        if f.width_bits > 64:
            values[f.name] = bytes(
                rng.integers(0, 256, size=f.width_bits // 8, dtype=np.uint8)
            )
    reference = spec.pack(values)
    batch = plan_for(spec).pack_batch(3, values)
    for row in batch:
        assert row.tobytes() == reference


def test_packplan_rejects_out_of_range():
    plan = PackPlan(inet.IPV4)
    with pytest.raises(ValueError):
        plan.pack_batch(2, {"ttl": np.array([1, 300])})
    with pytest.raises(ValueError):
        plan.pack_batch(2, {"ttl": 300})


def test_packplan_rejects_bad_shapes():
    plan = PackPlan(inet.IPV4)
    with pytest.raises(ValueError):
        plan.pack_batch(3, {"ttl": np.array([1, 2])})  # wrong row count
    with pytest.raises(KeyError):
        plan.pack_batch(3, {"no_such_field": 1})
    with pytest.raises(ValueError):
        plan.pack_batch(3, {"src_addr": np.zeros((3, 3), dtype=np.uint8)})


def test_plan_for_is_memoised():
    assert plan_for(inet.TCP) is plan_for(inet.TCP)


# -- emitter-level fast vs scalar differential --------------------------------


def _emit_everything(emitter: FrameEmitter) -> None:
    """One of every per-spec kind, raw frames, and every batch method."""
    emitter.tcp(
        0.1, "02:00:00:00:00:01", "02:00:00:00:00:02",
        "10.0.0.1", "10.0.0.2", 1234, 80,
        seq=7, ack=9, flags=inet.TCP_SYN, window=512, ttl=33,
        ident=42, payload=b"hello",
    )
    emitter.udp(
        0.2, "02:00:00:00:00:03", "02:00:00:00:00:04",
        "10.0.0.3", "10.0.0.4", 5000, 53, ttl=12, ident=3, payload=b"q",
    )
    emitter.udp6(
        0.3, "02:00:00:00:00:05", "02:00:00:00:00:06",
        "fd00::1", "fd00::2", 5683, 5683, hop_limit=9, payload=b"coap",
    )
    emitter.icmp_echo(
        0.4, "02:00:00:00:00:07", "02:00:00:00:00:08",
        "10.0.0.5", "10.0.0.6", reply=True, identifier=5, sequence=6,
        ttl=61, ip_ident=8, payload=b"ping",
    )
    emitter.arp(
        0.5, "ff:ff:ff:ff:ff:ff", "02:00:00:00:00:09",
        sender_mac="02:00:00:00:00:09", sender_ip="10.0.0.7",
        target_mac="00:00:00:00:00:00", target_ip="10.0.0.1", request=True,
    )
    emitter.raw(0.6, b"\x01\x02\x03raw-frame")

    rng = np.random.default_rng(11)
    n = 17
    times = np.linspace(1.0, 2.0, n)
    emitter.tcp_batch(
        times,
        random_mac_matrix(rng, n),              # ndarray address column
        "02:00:00:00:00:02",                    # broadcast address column
        spoofed_ip_matrix(rng, n),
        "10.0.0.2",
        rng.integers(1024, 65536, size=n),      # ndarray int column
        80,                                     # broadcast int column
        seqs=rng.integers(0, 2**32, size=n),
        flags=inet.TCP_SYN,
        windows=1024,
        ttls=rng.integers(30, 255, size=n),
        idents=rng.integers(0, 65536, size=n),
        payloads=random_payloads(rng, n, 0, 30),  # includes empty payloads
    )
    emitter.udp_batch(
        times + 1.0,
        "02:00:00:00:00:03",
        "02:00:00:00:00:04",
        "10.0.0.3",
        "10.0.0.4",
        rng.integers(1024, 65536, size=n),
        53,
        payloads=b"",                             # broadcast empty payload
    )
    emitter.udp6_batch(
        times + 2.0,
        "02:00:00:00:00:05",
        "02:00:00:00:00:06",
        "fd00::1",
        "fd00::2",
        rng.integers(1024, 65536, size=n),
        5683,
        hop_limits=rng.integers(1, 255, size=n),
        payloads=random_payloads(rng, n, 1, 40),
    )
    emitter.icmp_echo_batch(
        times + 3.0,
        "02:00:00:00:00:07",
        random_mac_matrix(rng, n),
        spoofed_ip_matrix(rng, n),
        "10.0.0.6",
        replies=rng.random(n) < 0.5,              # bool column
        identifiers=rng.integers(0, 65536, size=n),
        sequences=np.arange(n),
        payloads=random_payloads(rng, n, 4, 64),
    )
    emitter.arp_batch(
        times + 4.0,
        "ff:ff:ff:ff:ff:ff",
        random_mac_matrix(rng, n),
        sender_macs=random_mac_matrix(rng, n),
        sender_ips=spoofed_ip_matrix(rng, n),
        target_macs="00:00:00:00:00:00",
        target_ips="10.0.0.1",
        requests=rng.random(n) < 0.5,
    )


def _render(enabled: bool):
    emitter = FrameEmitter("test", "dev-0")
    _emit_everything(emitter)
    with fastpath(enabled):
        return emitter.packets()


def test_emitter_fast_and_scalar_backends_identical():
    assert_packets_identical(_render(True), _render(False))


def test_emitter_len_counts_specs_raw_and_batches():
    emitter = FrameEmitter("test")
    _emit_everything(emitter)
    assert len(emitter) == 6 + 5 * 17
    assert len(emitter.packets()) == len(emitter)


def test_emitter_preserves_emission_order_and_labels():
    emitter = FrameEmitter("attack", "dev-3")
    emitter.udp(1.0, "02:00:00:00:00:01", "02:00:00:00:00:02",
                "10.0.0.1", "10.0.0.2", 1, 2)
    emitter.raw(0.5, b"xx")
    emitter.udp_batch(np.array([2.0, 3.0]), "02:00:00:00:00:01",
                      "02:00:00:00:00:02", "10.0.0.1", "10.0.0.2", 9, 10)
    packets = emitter.packets()
    assert [p.timestamp for p in packets] == [1.0, 0.5, 2.0, 3.0]
    assert all(p.label.category == "attack" for p in packets)
    assert all(p.label.device == "dev-3" for p in packets)


def test_fastpath_context_restores_state():
    initial = fastpath_enabled()
    with fastpath(not initial):
        assert fastpath_enabled() is (not initial)
    assert fastpath_enabled() is initial


# -- full-trace differential ---------------------------------------------------

TRACE_CONFIGS = [
    TraceConfig(stack="inet", duration=20.0, n_devices=4, chatter=True, seed=7),
    TraceConfig(stack="industrial", duration=15.0, n_devices=5, chatter=True, seed=3),
    TraceConfig(stack="zigbee", duration=10.0, n_devices=3, seed=5),
    TraceConfig(stack="ble", duration=10.0, n_devices=3, seed=9),
]


@pytest.mark.slow
@pytest.mark.parametrize("config", TRACE_CONFIGS, ids=lambda c: c.stack)
def test_trace_fast_vs_scalar_identity(config):
    with fastpath(True):
        fast = generate_trace(config)
    with fastpath(False):
        scalar = generate_trace(config)
    assert_packets_identical(fast, scalar)


def test_trace_same_seed_determinism():
    config = TraceConfig(stack="inet", duration=10.0, n_devices=2, chatter=True, seed=13)
    assert_packets_identical(generate_trace(config), generate_trace(config))


# -- helper functions ----------------------------------------------------------


def test_stamped_payloads_words_and_matrices():
    template = bytes(range(10))
    ids = np.array([0x0102, 0xBEEF])
    tokens = np.array([[9, 8, 7], [1, 2, 3]], dtype=np.uint8)
    out = stamped_payloads(template, {2: ids, 5: tokens})
    assert out[0] == b"\x00\x01\x01\x02\x04\x09\x08\x07\x08\x09"
    assert out[1] == b"\x00\x01\xbe\xef\x04\x01\x02\x03\x08\x09"


@pytest.mark.parametrize(
    "payloads",
    [
        [],
        [b"", b""],
        [b"\x01", b"", b"\x01\x02\x03", b"\xff\xff"],
        [b"\x12\x34\x56", b"", b""],
        random_payloads(np.random.default_rng(3), 200, 0, 90),
    ],
)
def test_payload_word_sums_match_per_payload_reference(payloads):
    """Each payload's sum of big-endian 16-bit words, odd ones zero-padded."""
    from repro.net.synth import _payload_word_sums

    def reference(payload):
        padded = payload + b"\0" * (len(payload) & 1)
        return sum(
            (padded[i] << 8) | padded[i + 1] for i in range(0, len(padded), 2)
        )

    lengths = np.array([len(p) for p in payloads], dtype=np.int64)
    sums = _payload_word_sums(payloads, lengths)
    assert sums.dtype == np.uint64
    assert sums.tolist() == [reference(p) for p in payloads]


def test_random_payloads_sizes_and_determinism():
    a = random_payloads(np.random.default_rng(2), 50, 5, 20)
    b = random_payloads(np.random.default_rng(2), 50, 5, 20)
    assert a == b
    assert all(5 <= len(p) < 20 for p in a)


def test_arrival_chains_are_monotonic_and_bounded():
    rng = np.random.default_rng(4)
    times = poisson_times(rng, 10.0, 5.0, rate=100.0)
    assert len(times)
    assert times[0] > 10.0
    assert times[-1] < 15.0
    assert np.all(np.diff(times) >= 0)

    chain = uniform_chain(np.random.default_rng(4), 0.0, 3.0, 0.1, 0.2)
    assert chain[0] == 0.0
    assert chain[-1] < 3.0
    gaps = np.diff(chain)
    assert np.all((gaps >= 0.1) & (gaps < 0.2))

    again = arrival_chain(np.random.default_rng(6), 0.0, 2.0, 0.05)
    repeat = arrival_chain(np.random.default_rng(6), 0.0, 2.0, 0.05)
    np.testing.assert_array_equal(again, repeat)


def test_address_matrices_shapes():
    rng = np.random.default_rng(8)
    macs = random_mac_matrix(rng, 9)
    assert macs.shape == (9, 6) and macs.dtype == np.uint8
    assert np.all(macs[:, 0] == 0x06)
    ips = spoofed_ip_matrix(rng, 9)
    assert ips.shape == (9, 4)
    assert np.all((ips[:, 0] >= 11) & (ips[:, 0] < 223))
    assert np.all(ips[:, 3] >= 1)


# -- throughput ----------------------------------------------------------------


@pytest.mark.perf
@pytest.mark.slow
def test_generate_trace_fastpath_speedup():
    """The acceptance config must run ≥10x faster than the scalar backend."""
    import gc

    config = TraceConfig(
        stack="inet", duration=300.0, n_devices=8, chatter=True, seed=7
    )

    def best_of(n, enabled):
        # gc.collect() between reps: the full test suite leaves enough
        # garbage/fragmentation behind to skew a single timing.
        best = np.inf
        with fastpath(enabled):
            for _ in range(n):
                gc.collect()
                t0 = time.perf_counter()
                packets = generate_trace(config)
                best = min(best, time.perf_counter() - t0)
        return best, packets

    with fastpath(True):
        generate_trace(config)  # warm numpy/plan caches
    fast_time, fast = best_of(3, True)
    scalar_time, scalar = best_of(3, False)
    assert_packets_identical(fast, scalar)
    speedup = scalar_time / fast_time
    assert speedup >= 10.0, (
        f"fastpath {fast_time:.3f}s vs scalar {scalar_time:.3f}s "
        f"= {speedup:.1f}x (< 10x)"
    )
