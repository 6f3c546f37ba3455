"""Tests for the decision-provenance event stream and flight recorder.

Holds the recorder's two structural invariants — the ring never exceeds
its capacity, and a critical record (drop/quarantine/shed/alert) is
never evicted while an equal-or-older permit (allow) record is resident
— plus the determinism contract: head sampling is a pure function of
``(seed, seq)``, identical between the scalar ``admit_permit`` and the
vectorised ``admit_permit_mask``, so both switch data paths produce
byte-identical record streams.  The perf-marked test bounds the
enabled-mode provenance cost at ≤15 % of ``process_batch`` wall time
at batch 1024.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.events import (
    EVENT_KINDS,
    KIND_ALERT,
    KIND_DECISION,
    KIND_SHED,
    AlertEvent,
    DecisionRecord,
    event_from_dict,
    event_to_dict,
    is_critical,
    read_events,
    write_events,
)
from repro.obs.flight import FlightRecorder
from repro.dataplane.switch import Switch, SwitchConfig
from repro.dataplane.tables import ExactTable
from repro.net.packet import Packet


def _decision(seq, verdict="allow", **kw):
    return DecisionRecord(
        kind=KIND_DECISION, seq=seq, timestamp=seq * 1e-3, verdict=verdict, **kw
    )


def _shed(seq):
    return DecisionRecord(
        kind=KIND_SHED, seq=seq, timestamp=seq * 1e-3, verdict="drop", shard=0
    )


def _alert(name="shed_rate_high"):
    return AlertEvent(
        name=name, value=0.5, threshold=0.01, comparison=">", timestamp=1.0
    )


class TestEvents:
    def test_kind_catalogue(self):
        assert EVENT_KINDS == ("decision", "shed", "alert")

    @pytest.mark.parametrize(
        "event",
        [
            _decision(
                7,
                verdict="drop",
                shard=2,
                table="firewall",
                entry_id=42,
                tables=("acl", "firewall"),
                offsets=(0, 9),
                values=(17, 200),
            ),
            _decision(3),  # default-action allow: optional fields empty
            _shed(11),
            _alert(),
        ],
    )
    def test_dict_round_trip(self, event):
        restored = event_from_dict(event_to_dict(event))
        assert restored == event
        assert type(restored) is type(event)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            event_from_dict({"kind": "postcard"})

    def test_criticality(self):
        assert not is_critical(_decision(0, verdict="allow"))
        assert is_critical(_decision(0, verdict="drop"))
        assert is_critical(_decision(0, verdict="quarantine"))
        assert is_critical(_shed(0))
        assert is_critical(_alert())

    def test_jsonl_file_round_trip(self, tmp_path):
        events = [_decision(0, verdict="drop"), _shed(1), _alert()]
        path = write_events(events, tmp_path / "dump.jsonl")
        assert read_events(path) == events

    def test_empty_dump_round_trips(self, tmp_path):
        path = write_events([], tmp_path / "empty.jsonl")
        assert read_events(path) == []


class TestRecorderInvariants:
    def test_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(0)
        with pytest.raises(ValueError):
            FlightRecorder(4, sample_rate=1.5)

    def test_capacity_never_exceeded(self):
        recorder = FlightRecorder(8, sample_rate=1.0)
        rng = np.random.default_rng(0)
        for seq in range(500):
            verdict = "drop" if rng.random() < 0.3 else "allow"
            recorder.add(_decision(seq, verdict=verdict))
            assert len(recorder) <= 8
        assert len(recorder) == 8

    def test_permits_evicted_before_criticals(self):
        recorder = FlightRecorder(4, sample_rate=1.0)
        recorder.add(_decision(0, verdict="drop"))  # oldest, critical
        for seq in range(1, 4):
            recorder.add(_decision(seq))  # permits fill the rest
        # six more criticals: every permit must go before the old drop
        for seq in range(4, 10):
            assert recorder.add(_decision(seq, verdict="drop"))
        kinds = [(e.seq, e.verdict) for e in recorder.records()]
        # ring is all-critical now; the three permits were evicted first,
        # then the all-critical rule started rolling the oldest drops.
        assert all(verdict == "drop" for __, verdict in kinds)
        assert recorder.evicted == 6  # 3 permits + 3 oldest drops

    def test_permit_refused_when_ring_all_critical(self):
        recorder = FlightRecorder(3, sample_rate=1.0)
        for seq in range(3):
            recorder.add(_decision(seq, verdict="drop"))
        assert not recorder.add(_decision(99, verdict="allow"))
        assert recorder.rejected_permits == 1
        assert [e.seq for e in recorder.records()] == [0, 1, 2]

    def test_records_in_arrival_order_across_classes(self):
        recorder = FlightRecorder(16, sample_rate=1.0)
        order = [0, 1, 2, 3, 4, 5]
        for seq in order:
            verdict = "drop" if seq % 2 else "allow"
            recorder.add(_decision(seq, verdict=verdict))
        assert [e.seq for e in recorder.records()] == order

    @settings(max_examples=150, deadline=None)
    @given(
        capacity=st.integers(1, 12),
        kinds=st.lists(st.sampled_from(["allow", "drop", "shed", "alert"]), max_size=60),
        cuts=st.lists(st.integers(0, 60), max_size=5),
    )
    def test_extend_retains_exactly_like_add(self, capacity, kinds, cuts):
        """Bulk ``extend`` and ``extend_lazy`` (with or without room for
        the whole chunk) leave the ring exactly as ``add`` does."""
        make = {
            "allow": lambda i: _decision(i),
            "drop": lambda i: _decision(i, verdict="drop"),
            "shed": _shed,
            "alert": lambda i: _alert(f"a{i}"),
        }
        events = [make[kind](i) for i, kind in enumerate(kinds)]
        one, bulk, rows = (FlightRecorder(capacity) for __ in range(3))
        for event in events:
            one.add(event)
        bounds = [0] + sorted(cuts) + [len(events)]
        for lo, hi in zip(bounds, bounds[1:]):
            chunk = events[lo:hi]
            critical = [is_critical(e) for e in chunk]
            bulk.extend(chunk)
            indices = range(lo, min(hi, len(events)))
            rows.extend_lazy(
                (indices, [kinds[i] for i in indices]),
                lambda row: make[row[1]](row[0]),
                critical,
            )
        assert bulk.records() == rows.records() == one.records()
        assert bulk.stats() == rows.stats() == one.stats()

    def test_clear_keeps_lifetime_counters(self):
        recorder = FlightRecorder(4, sample_rate=1.0)
        for seq in range(6):
            recorder.add(_decision(seq))
        recorder.clear()
        assert len(recorder) == 0
        stats = recorder.stats()
        assert stats["recorded"] == 6 and stats["evicted"] == 2

    def test_dump_round_trip(self, tmp_path):
        recorder = FlightRecorder(8, sample_rate=1.0)
        events = [_decision(0, verdict="drop"), _shed(1), _alert()]
        for event in events:
            recorder.add(event)
        path = recorder.dump(tmp_path / "flight.jsonl")
        assert read_events(path) == events


class TestDeterministicSampling:
    def test_fixed_seed_reproduces_admits(self):
        a = FlightRecorder(8, sample_rate=0.25, seed=42)
        b = FlightRecorder(8, sample_rate=0.25, seed=42)
        admits = [a.admit_permit(seq) for seq in range(2000)]
        assert admits == [b.admit_permit(seq) for seq in range(2000)]
        fraction = sum(admits) / len(admits)
        assert 0.15 < fraction < 0.35  # roughly the configured rate

    def test_different_seeds_differ(self):
        a = FlightRecorder(8, sample_rate=0.25, seed=1)
        b = FlightRecorder(8, sample_rate=0.25, seed=2)
        assert [a.admit_permit(s) for s in range(500)] != [
            b.admit_permit(s) for s in range(500)
        ]

    def test_scalar_and_mask_agree(self):
        recorder = FlightRecorder(8, sample_rate=0.1, seed=7)
        seqs = np.arange(5000)
        mask = recorder.admit_permit_mask(seqs)
        scalar = np.array([recorder.admit_permit(int(s)) for s in seqs])
        np.testing.assert_array_equal(mask, scalar)

    @settings(max_examples=100, deadline=None)
    @given(
        start=st.integers(-(2**40), 2**40),
        offsets=st.lists(st.integers(0, 3 * 2**16), min_size=1, max_size=300),
    )
    def test_mask_agrees_for_any_seqs(self, start, offsets):
        """Runs inside one cached block, across blocks, and negative seqs."""
        recorder = FlightRecorder(8, sample_rate=0.3, seed=5)
        seqs = np.asarray(offsets, dtype=np.int64) + start
        narrow = np.resize(np.asarray(offsets) % 5000 + start, 200)
        for chunk in (seqs, np.sort(seqs), narrow, np.sort(narrow)):
            mask = recorder.admit_permit_mask(chunk)
            scalar = [recorder.admit_permit(int(s)) for s in chunk]
            assert mask.tolist() == scalar
        # Contiguous runs, inside one block and across a block edge.
        for first in (start, start + offsets[0], (start >> 16 << 16) - 7):
            count = len(offsets)
            run = recorder.admit_permit_range(first, count)
            assert run.tolist() == [
                recorder.admit_permit(s) for s in range(first, first + count)
            ]

    @pytest.mark.parametrize("rate,expect", [(0.0, False), (1.0, True)])
    def test_rate_extremes(self, rate, expect):
        recorder = FlightRecorder(8, sample_rate=rate)
        assert recorder.admit_permit(123) is expect
        assert recorder.admit_permit_mask(np.arange(4)).all() is np.bool_(expect)


def _firewall_switch():
    """Two-table pipeline so `tables consulted` is non-trivial."""
    switch = Switch(SwitchConfig(key_offsets=(0, 1)))
    acl = ExactTable("acl", 2, default_action="continue")
    acl.add((9, 9), "quarantine")
    firewall = ExactTable("firewall", 2)
    firewall.add((1, 1), "drop")
    switch.add_table(acl)
    switch.add_table(firewall)
    return switch


def _mixed_packets(n, rng):
    """~1/3 drop, ~1/6 quarantine, rest allow."""
    packets = []
    for i in range(n):
        roll = rng.random()
        if roll < 1 / 3:
            head = bytes((1, 1))
        elif roll < 1 / 2:
            head = bytes((9, 9))
        else:
            head = bytes((200, 201))
        packets.append(
            Packet(head + bytes(14), timestamp=i * 1e-5)
        )
    return packets


class TestSwitchDecisionRecords:
    def test_scalar_and_batch_records_identical(self):
        rng = np.random.default_rng(3)
        packets = _mixed_packets(600, rng)
        scalar_switch = _firewall_switch()
        batch_switch = _firewall_switch()
        scalar_rec = FlightRecorder(4096, sample_rate=0.2, seed=5)
        batch_rec = FlightRecorder(4096, sample_rate=0.2, seed=5)
        scalar_switch.attach_recorder(scalar_rec)
        batch_switch.attach_recorder(batch_rec)
        for packet in packets:
            scalar_switch.process(packet)
        batch_switch.process_batch(packets)
        scalar_records = [event_to_dict(e) for e in scalar_rec.records()]
        batch_records = [event_to_dict(e) for e in batch_rec.records()]
        assert scalar_records == batch_records
        assert scalar_rec.sampled_out == batch_rec.sampled_out > 0

    def test_drop_record_carries_full_match_trace(self):
        switch = _firewall_switch()
        recorder = FlightRecorder(8, sample_rate=0.0)
        switch.attach_recorder(recorder)
        packet = Packet(bytes((1, 1)) + bytes(14), timestamp=0.25)
        switch.process(packet)
        (record,) = recorder.records()
        assert record.kind == KIND_DECISION
        assert record.verdict == "drop"
        assert record.tables == ("acl", "firewall")  # consulted in order
        assert record.table == "firewall"
        assert record.entry_id is not None
        assert record.offsets == (0, 1)
        assert record.values == (1, 1)
        assert record.timestamp == 0.25

    def test_default_action_record_has_no_entry(self):
        switch = _firewall_switch()
        recorder = FlightRecorder(8, sample_rate=1.0)
        switch.attach_recorder(recorder)
        switch.process(Packet(bytes((200, 200)) + bytes(14)))
        (record,) = recorder.records()
        assert record.verdict == "allow"
        # the default action of the last table decided: no entry matched
        assert record.table == "firewall" and record.entry_id is None
        assert record.tables == ("acl", "firewall")

    def test_seq_continuity_across_calls(self):
        switch = _firewall_switch()
        recorder = FlightRecorder(64, sample_rate=1.0)
        switch.attach_recorder(recorder)
        packets = [Packet(bytes((1, 1)) + bytes(14)) for _ in range(3)]
        switch.process(packets[0])
        switch.process_batch(packets[1:])
        assert [e.seq for e in recorder.records()] == [0, 1, 2]

    def test_no_recorder_means_no_records(self):
        switch = _firewall_switch()
        rng = np.random.default_rng(0)
        switch.process_batch(_mixed_packets(64, rng))  # must not raise
        assert switch.recorder is None


@pytest.mark.perf
def test_enabled_provenance_overhead_budget():
    """Recorder-attached process_batch stays ≤15 % over detached.

    The acceptance shape from the issue: a realistic ternary firewall
    (the paper's TCAM model, same build as the ``flight_recorder``
    bench phase), ~2 % drop traffic, 1 % allow sampling, batch 1024.
    Best-of-three timing on both sides to shave scheduler noise.
    """
    import time as _time

    from repro.dataplane.tables import TernaryTable

    rng = np.random.default_rng(1)
    packets = []
    for i in range(8192):
        head = bytes((1, 1)) if rng.random() < 0.02 else bytes((200, 201))
        packets.append(Packet(head + bytes(14), timestamp=i * 1e-5))
    batches = [packets[i : i + 1024] for i in range(0, len(packets), 1024)]

    def build():
        switch = Switch(SwitchConfig(key_offsets=(0, 1)))
        table = TernaryTable("fw", 2, max_entries=256)
        table.add((1, 1), (255, 255), "drop", priority=0)
        for i in range(2, 34):  # realistic table depth, never matched
            table.add((i, 255 - i), (255, 255), "drop", priority=i)
        switch.add_table(table)
        return switch

    def run(switch):
        for batch in batches:
            switch.process_batch(batch)

    def best_of(switch, n=3):
        run(switch)  # warm
        samples = []
        for _ in range(n):
            switch.reset_stats()
            start = _time.perf_counter()
            run(switch)
            samples.append(_time.perf_counter() - start)
        return min(samples)

    plain = build()
    recorded = build()
    recorded.attach_recorder(FlightRecorder(65536, sample_rate=0.01, seed=0))

    base = best_of(plain)
    instrumented = best_of(recorded)
    overhead = (instrumented - base) / base
    assert overhead <= 0.15, (
        f"provenance overhead {overhead:.1%} exceeds 15% "
        f"({instrumented:.5f}s vs {base:.5f}s)"
    )
