"""Differential harness: scalar reference path vs the batch data path.

The switch has two data paths with one contract: ``Switch.process`` (the
scalar reference, written for clarity) and ``Switch.process_batch``
(the compiled LUT-bitmap classifier the benchmarks time).  This suite
locks the two together: randomized rule sets and packet traces —
arbitrary parser offsets, short/truncated packets, overlapping ternary
priorities, empty and full tables — are replayed through both paths on
identically configured switches, and every observable must agree bit
for bit: per-packet verdicts (action, table, entry id), aggregate
switch stats, and per-entry/default table counters.

Tables are built from declarative *specs* so two independent instances
(one per path) can be constructed without sharing counter state.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane.compiled import CompiledClassifier
from repro.dataplane.switch import Switch, SwitchConfig
from repro.dataplane.tables import (
    EntryExistsError,
    ExactTable,
    LpmTable,
    RangeTable,
    TernaryTable,
)
from repro.net.packet import Packet

TABLE_KINDS = ("exact", "ternary", "range", "lpm")

#: Mix of terminal pipeline actions ("drop"/"allow"/"quarantine") and
#: non-terminal ones that fall through to the next table.
actions = st.sampled_from(["drop", "allow", "quarantine", "continue", "log"])
default_actions = st.sampled_from(["allow", "drop", "quarantine", "continue"])


def key_bytes(width):
    return st.lists(
        st.integers(0, 255), min_size=width, max_size=width
    ).map(tuple)


@st.composite
def byte_ranges(draw, width):
    ranges = []
    for __ in range(width):
        lo = draw(st.integers(0, 255))
        ranges.append((lo, draw(st.integers(lo, 255))))
    return tuple(ranges)


@st.composite
def table_specs(draw, width, kind=None):
    """A declarative table description, instantiable any number of times."""
    kind = kind or draw(st.sampled_from(TABLE_KINDS))
    spec = {"kind": kind, "default": draw(default_actions), "entries": []}
    count = draw(st.integers(0, 6))
    if kind == "exact":
        keys = draw(
            st.lists(key_bytes(width), min_size=count, max_size=count, unique=True)
        )
        spec["entries"] = [(key, draw(actions)) for key in keys]
    elif kind == "ternary":
        spec["entries"] = [
            (
                draw(key_bytes(width)),
                draw(key_bytes(width)),
                draw(actions),
                draw(st.integers(0, 3)),
            )
            for __ in range(count)
        ]
    elif kind == "range":
        spec["entries"] = [
            (draw(byte_ranges(width)), draw(actions), draw(st.integers(0, 3)))
            for __ in range(count)
        ]
    else:  # lpm
        spec["entries"] = [
            (draw(key_bytes(width)), draw(st.integers(0, 8 * width)), draw(actions))
            for __ in range(count)
        ]
    return spec


def build_table(spec, width, name):
    kind = spec["kind"]
    kwargs = {"default_action": spec["default"]}
    if kind == "exact":
        table = ExactTable(name, width, **kwargs)
        for key, action in spec["entries"]:
            table.add(key, action)
    elif kind == "ternary":
        table = TernaryTable(name, width, **kwargs)
        for value, mask, action, priority in spec["entries"]:
            table.add(value, mask, action, priority=priority)
    elif kind == "range":
        table = RangeTable(name, width, **kwargs)
        for ranges, action, priority in spec["entries"]:
            table.add(ranges, action, priority=priority)
    else:
        table = LpmTable(name, width, **kwargs)
        for key, prefix_len, action in spec["entries"]:
            try:
                table.add(key, prefix_len, action)
            except EntryExistsError:
                pass  # deterministic given the spec: both instances skip
    return table


def counters_snapshot(table):
    return (
        {eid: dataclasses.asdict(c) for eid, c in table.counters.items()},
        dataclasses.asdict(table.default_counter),
    )


def assert_tables_equal(table_a, table_b):
    assert counters_snapshot(table_a) == counters_snapshot(table_b)


def assert_switches_equal(switch_a, switch_b):
    assert dataclasses.asdict(switch_a.stats) == dataclasses.asdict(switch_b.stats)
    for table_a, table_b in zip(switch_a.tables, switch_b.tables):
        assert_tables_equal(table_a, table_b)


def batch_lookup(table, keys, sizes=None):
    """One batch lookup of ``table`` through a fresh compiled program."""
    return CompiledClassifier().lookup_batch(table, keys, packet_sizes=sizes)


def scalar_lookup_series(table, keys, sizes):
    """Reference results for a key batch, one scalar lookup at a time."""
    return [
        table.lookup(tuple(key), packet_size=int(size))
        for key, size in zip(keys, sizes)
    ]


class TestSingleTableDifferential:
    """Compiled batch lookup vs scalar lookup, per table kind."""

    @pytest.mark.parametrize("kind", TABLE_KINDS)
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_lookup_batch_matches_scalar(self, kind, data):
        width = data.draw(st.integers(1, 4), label="key_width")
        spec = data.draw(table_specs(width, kind=kind), label="table")
        count = data.draw(st.integers(0, 30), label="n_keys")
        keys = np.array(
            data.draw(
                st.lists(key_bytes(width), min_size=count, max_size=count),
                label="keys",
            ),
            dtype=np.uint8,
        ).reshape(count, width)
        sizes = np.array(
            data.draw(
                st.lists(
                    st.integers(0, 2000), min_size=count, max_size=count
                ),
                label="sizes",
            ),
            dtype=np.int64,
        )

        table_scalar = build_table(spec, width, "t")
        table_batch = build_table(spec, width, "t")
        reference = scalar_lookup_series(table_scalar, keys, sizes)
        batch = batch_lookup(table_batch, keys, sizes)

        for row, result in enumerate(reference):
            assert bool(batch.hit[row]) == result.hit
            expected_id = result.entry_id if result.entry_id is not None else -1
            assert int(batch.entry_id[row]) == expected_id
            assert batch.actions[batch.action_code[row]] == result.action
            assert int(batch.priority[row]) == result.priority
        assert_tables_equal(table_scalar, table_batch)


@st.composite
def switch_specs(draw):
    """Parser offsets + a pipeline of 1..3 random table specs."""
    width = draw(st.integers(1, 5))
    offsets = tuple(
        draw(
            st.lists(
                st.integers(0, 90), min_size=width, max_size=width, unique=True
            )
        )
    )
    n_tables = draw(st.integers(1, 3))
    tables = [draw(table_specs(width)) for __ in range(n_tables)]
    return offsets, tables


def build_switch(offsets, table_spec_list):
    switch = Switch(SwitchConfig(key_offsets=offsets))
    for index, spec in enumerate(table_spec_list):
        switch.add_table(build_table(spec, len(offsets), f"t{index}"))
    return switch


#: Packet payloads deliberately spanning empty through longer-than-parser,
#: so batch key extraction exercises the zero-fill contract.
packet_traces = st.lists(
    st.binary(min_size=0, max_size=120).map(Packet), min_size=0, max_size=40
)


class TestPipelineDifferential:
    """Whole-switch differential: randomized pipelines and traces."""

    @settings(max_examples=200, deadline=None)
    @given(spec=switch_specs(), packets=packet_traces)
    def test_process_batch_matches_process(self, spec, packets):
        offsets, table_spec_list = spec
        switch_scalar = build_switch(offsets, table_spec_list)
        switch_batch = build_switch(offsets, table_spec_list)

        reference = [switch_scalar.process(packet) for packet in packets]
        batch = switch_batch.process_batch(packets)

        assert list(batch) == reference
        assert_switches_equal(switch_scalar, switch_batch)

    @settings(max_examples=100, deadline=None)
    @given(
        spec=switch_specs(),
        packets=packet_traces,
        batch_size=st.integers(1, 17),
    )
    def test_process_trace_chunking_matches_scalar(
        self, spec, packets, batch_size
    ):
        offsets, table_spec_list = spec
        switch_scalar = build_switch(offsets, table_spec_list)
        switch_batch = build_switch(offsets, table_spec_list)

        reference = switch_scalar.process_trace(packets)
        chunked = switch_batch.process_trace(packets, batch_size=batch_size)

        assert chunked == reference
        assert_switches_equal(switch_scalar, switch_batch)


class TestEdgeCases:
    """Deterministic corners the strategies only sample."""

    def test_empty_pipeline_batch(self):
        switch = Switch(SwitchConfig(key_offsets=(0, 1)))
        verdicts = switch.process_batch([Packet(b"ab"), Packet(b"")])
        assert all(v.action == "allow" and v.table is None for v in verdicts)
        assert switch.stats.received == 2

    def test_empty_batch_is_noop(self):
        switch = Switch(SwitchConfig(key_offsets=(0,)))
        assert list(switch.process_batch([])) == []
        assert switch.stats.received == 0

    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_empty_table_all_defaults(self, kind):
        spec = {"kind": kind, "default": "drop", "entries": []}
        table = build_table(spec, 2, "t")
        keys = np.array([[0, 0], [255, 255]], dtype=np.uint8)
        batch = batch_lookup(table, keys)
        assert not batch.hit.any()
        assert [batch.actions[c] for c in batch.action_code] == ["drop", "drop"]
        assert table.default_counter.packets == 2

    def test_full_table_differential(self):
        """A table at max_entries behaves identically on both paths."""
        rng = np.random.default_rng(5)
        values = rng.integers(0, 256, size=(32, 2))
        tables = []
        for __ in range(2):
            table = TernaryTable("full", 2, max_entries=32)
            for priority, value in enumerate(values):
                table.add(
                    tuple(int(v) for v in value), (255, 0), "drop",
                    priority=priority,
                )
            tables.append(table)
        assert tables[0].free_entries == 0
        keys = rng.integers(0, 256, size=(200, 2)).astype(np.uint8)
        sizes = rng.integers(0, 1500, size=200).astype(np.int64)
        reference = scalar_lookup_series(tables[0], keys, sizes)
        batch = batch_lookup(tables[1], keys, sizes)
        for row, result in enumerate(reference):
            assert batch.actions[batch.action_code[row]] == result.action
            expected_id = result.entry_id if result.entry_id is not None else -1
            assert int(batch.entry_id[row]) == expected_id
        assert_tables_equal(tables[0], tables[1])

    def test_mutation_invalidates_batch_index(self):
        """add/remove between batch lookups must not serve stale programs."""
        table = ExactTable("t", 1)
        program = CompiledClassifier()
        first = table.add((7,), "drop")
        keys = np.array([[7], [8]], dtype=np.uint8)
        assert list(program.lookup_batch(table, keys).hit) == [True, False]
        table.add((8,), "allow")
        assert list(program.lookup_batch(table, keys).hit) == [True, True]
        table.remove(first)
        assert list(program.lookup_batch(table, keys).hit) == [False, True]

    def test_default_action_change_visible_to_batch(self):
        """The controller mutates default_action in place; no stale cache."""
        table = TernaryTable("t", 1)
        program = CompiledClassifier()
        table.add((1,), (255,), "drop")
        keys = np.array([[2]], dtype=np.uint8)
        assert program.lookup_batch(table, keys).actions[0] == "allow"
        table.default_action = "quarantine"
        assert program.lookup_batch(table, keys).actions[0] == "quarantine"

    def test_byte_counters_parity_across_paths(self):
        """All byte counters (received/dropped/quarantined) match exactly.

        Deterministic companion to the hypothesis stats equality above:
        a trace engineered so every verdict class occurs with distinct,
        non-zero byte totals, so a path that forgot to accumulate
        ``bytes_dropped`` or ``bytes_quarantined`` cannot pass by luck.
        """
        def build():
            switch = Switch(SwitchConfig(key_offsets=(0,)))
            table = ExactTable("t", 1)
            table.add((1,), "drop")
            table.add((2,), "quarantine")
            switch.add_table(table)
            return switch

        packets = (
            [Packet(bytes([1]) * 10)] * 3       # dropped, 10 B each
            + [Packet(bytes([2]) * 7)] * 5      # quarantined, 7 B each
            + [Packet(bytes([3]) * 4)] * 2      # allowed, 4 B each
        )
        switch_scalar, switch_batch = build(), build()
        for packet in packets:
            switch_scalar.process(packet)
        switch_batch.process_trace(packets, batch_size=4)

        expected = {
            "received": 10,
            "dropped": 3,
            "allowed": 2,
            "quarantined": 5,
            "bytes_received": 3 * 10 + 5 * 7 + 2 * 4,
            "bytes_dropped": 30,
            "bytes_quarantined": 35,
        }
        assert dataclasses.asdict(switch_scalar.stats) == expected
        assert dataclasses.asdict(switch_batch.stats) == expected

    def test_truncated_packets_zero_fill_through_pipeline(self):
        """Keys past a short packet's end read 0 on both paths."""
        switch_scalar = Switch(SwitchConfig(key_offsets=(0, 50)))
        switch_batch = Switch(SwitchConfig(key_offsets=(0, 50)))
        for switch in (switch_scalar, switch_batch):
            table = ExactTable("t", 2)
            table.add((1, 0), "drop")  # matches byte 50 == zero-fill
            switch.add_table(table)
        packets = [Packet(b"\x01"), Packet(b"\x01" + b"\x00" * 49 + b"\x02")]
        reference = [switch_scalar.process(p) for p in packets]
        batch = switch_batch.process_batch(packets)
        assert list(batch) == reference
        assert batch[0].dropped and not batch[1].dropped
