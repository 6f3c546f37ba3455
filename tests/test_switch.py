"""Tests for repro.dataplane.switch."""

import numpy as np
import pytest

from repro.dataplane.switch import (
    ClassifiedArrays,
    Register,
    Switch,
    SwitchConfig,
    Verdict,
    VerdictBatch,
    verdicts_of,
)
from repro.dataplane.tables import ExactTable, TernaryTable
from repro.net.packet import Packet


def make_switch(offsets=(0, 2)):
    return Switch(SwitchConfig(key_offsets=tuple(offsets)))


class TestConfig:
    def test_empty_offsets_rejected(self):
        with pytest.raises(ValueError):
            SwitchConfig(key_offsets=())

    def test_duplicate_offsets_rejected(self):
        with pytest.raises(ValueError):
            SwitchConfig(key_offsets=(1, 1))

    def test_negative_offsets_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            SwitchConfig(key_offsets=(-1, 0))


class TestParser:
    def test_key_extraction(self):
        switch = make_switch((0, 2))
        assert switch.parse_key(Packet(b"\x0a\x0b\x0c")) == (0x0A, 0x0C)

    def test_short_packet_zero_fill(self):
        switch = make_switch((0, 10))
        assert switch.parse_key(Packet(b"\xff")) == (0xFF, 0)


class TestPipeline:
    def test_default_allow_with_no_tables(self):
        switch = make_switch()
        verdict = switch.process(Packet(b"\x01\x02\x03"))
        assert verdict.action == "allow" and verdict.table is None

    def test_table_decides(self):
        switch = make_switch((0,))
        table = TernaryTable("fw", 1)
        table.add((7,), (255,), "drop")
        switch.add_table(table)
        assert switch.process(Packet(b"\x07")).dropped
        assert not switch.process(Packet(b"\x08")).dropped

    def test_verdict_carries_provenance(self):
        switch = make_switch((0,))
        table = TernaryTable("fw", 1)
        entry_id = table.add((7,), (255,), "drop")
        switch.add_table(table)
        verdict = switch.process(Packet(b"\x07"))
        assert verdict.table == "fw" and verdict.entry_id == entry_id

    def test_multiple_tables_first_terminal_wins(self):
        switch = make_switch((0,))
        first = TernaryTable("acl", 1, default_action="continue")
        first.add((1,), (255,), "drop")
        second = TernaryTable("fw", 1)
        second.add((0,), (0,), "drop")  # would drop everything
        switch.add_table(first)
        switch.add_table(second)
        # byte 1 → dropped by acl; byte 2 → falls through to fw
        assert switch.process(Packet(b"\x01")).table == "acl"
        assert switch.process(Packet(b"\x02")).table == "fw"

    def test_pipeline_depth_enforced(self):
        switch = Switch(SwitchConfig(key_offsets=(0,), pipeline_depth=1))
        switch.add_table(TernaryTable("a", 1))
        with pytest.raises(RuntimeError):
            switch.add_table(TernaryTable("b", 1))

    def test_key_width_mismatch_rejected(self):
        switch = make_switch((0, 1))
        with pytest.raises(ValueError):
            switch.add_table(TernaryTable("t", 3))

    def test_table_lookup_by_name(self):
        switch = make_switch((0,))
        table = ExactTable("fw", 1)
        switch.add_table(table)
        assert switch.table("fw") is table
        with pytest.raises(KeyError):
            switch.table("nope")


class TestStats:
    def test_counts(self):
        switch = make_switch((0,))
        table = TernaryTable("fw", 1)
        table.add((1,), (255,), "drop")
        switch.add_table(table)
        switch.process(Packet(b"\x01\x02"))
        switch.process(Packet(b"\x00\x00\x00"))
        assert switch.stats.received == 2
        assert switch.stats.dropped == 1
        assert switch.stats.allowed == 1
        assert switch.stats.bytes_received == 5
        assert switch.stats.bytes_dropped == 2
        assert switch.stats.drop_rate == pytest.approx(0.5)

    def test_bytes_quarantined_counted(self):
        # Quarantined traffic is diverted, not dropped — its bytes must
        # show up in bytes_quarantined (and not in bytes_dropped).
        switch = make_switch((0,))
        table = TernaryTable("fw", 1)
        table.add((3,), (255,), "quarantine")
        table.add((1,), (255,), "drop")
        switch.add_table(table)
        switch.process(Packet(b"\x03\xaa\xbb"))  # 3 bytes quarantined
        switch.process(Packet(b"\x03\xcc"))      # 2 bytes quarantined
        switch.process(Packet(b"\x01\x00"))      # 2 bytes dropped
        switch.process(Packet(b"\x00"))          # allowed
        assert switch.stats.quarantined == 2
        assert switch.stats.bytes_quarantined == 5
        assert switch.stats.bytes_dropped == 2

    def test_bytes_quarantined_batch_path(self):
        switch = make_switch((0,))
        table = TernaryTable("fw", 1)
        table.add((3,), (255,), "quarantine")
        switch.add_table(table)
        switch.process_batch([Packet(b"\x03\xaa"), Packet(b"\x03"), Packet(b"\x00")])
        assert switch.stats.quarantined == 2
        assert switch.stats.bytes_quarantined == 3
        assert switch.stats.allowed == 1

    def test_reset(self):
        switch = make_switch((0,))
        switch.process(Packet(b"\x00"))
        switch.reset_stats()
        assert switch.stats.received == 0

    def test_process_trace_order(self):
        switch = make_switch((0,))
        table = TernaryTable("fw", 1)
        table.add((1,), (255,), "drop")
        switch.add_table(table)
        verdicts = switch.process_trace([Packet(b"\x01"), Packet(b"\x00")])
        assert [v.dropped for v in verdicts] == [True, False]

    def test_process_trace_batched_matches_scalar(self):
        packets = [Packet(bytes([i % 4, i % 7])) for i in range(23)]
        scalar, batched = make_switch((0,)), make_switch((0,))
        for switch in (scalar, batched):
            table = TernaryTable("fw", 1)
            table.add((1,), (255,), "drop")
            table.add((2,), (255,), "quarantine")
            switch.add_table(table)
        reference = scalar.process_trace(packets)
        assert batched.process_trace(packets, batch_size=5) == reference
        assert batched.stats == scalar.stats

    def test_process_trace_invalid_batch_size(self):
        switch = make_switch((0,))
        with pytest.raises(ValueError):
            switch.process_trace([Packet(b"\x00")], batch_size=0)


class TestVerdictBatch:
    """The columnar batch-path verdicts, read as a ``Sequence[Verdict]``."""

    def _switch(self):
        switch = make_switch((0,))
        first = ExactTable("first", 1)
        first.add((1,), "drop")
        first.add((2,), "noop")  # non-terminal: falls through
        second = TernaryTable("second", 1)
        second.add((2,), (255,), "quarantine")
        # Non-terminal defaults: a miss in both tables leaves the
        # pipeline undecided, so no table decides byte 3.
        first.default_action = second.default_action = "noop"
        switch.add_table(first)
        switch.add_table(second)
        return switch

    def _packets(self):
        return [Packet(bytes((b,))) for b in (1, 2, 3, 1, 2)]

    def test_reads_like_the_scalar_verdict_list(self):
        scalar, batch = self._switch(), self._switch()
        reference = [scalar.process(p) for p in self._packets()]
        verdicts = batch.process_batch(self._packets())
        assert isinstance(verdicts, VerdictBatch)
        assert len(verdicts) == 5
        assert list(verdicts) == reference
        assert verdicts[0] == reference[0] and verdicts[-1] == reference[-1]
        assert verdicts[1:3] == reference[1:3]
        assert verdicts.codes.tolist() == [1, 2, 0, 1, 2]
        assert verdicts.table_idx.tolist() == [0, 1, -1, 0, 1]
        assert verdicts.counts().tolist() == [1, 2, 2]

    def test_one_verdict_object_per_distinct_outcome(self):
        verdicts = list(self._switch().process_batch(self._packets()))
        assert verdicts[0] is verdicts[3] and verdicts[1] is verdicts[4]

    def test_with_tenant_stamps_built_verdicts(self):
        verdicts = self._switch().process_batch(self._packets())
        stamped = verdicts.with_tenant("cams")
        assert [v.tenant for v in stamped] == ["cams"] * 5
        assert [v.tenant for v in verdicts] == [None] * 5

    def test_empty_batch(self):
        verdicts = self._switch().process_batch([])
        assert len(verdicts) == 0 and list(verdicts) == []
        assert verdicts.table_names == ("first", "second")

    def test_classify_arrays_unpacks_to_name_arrays(self):
        switch = self._switch()
        packets = self._packets()
        keys = Packet.batch_keys(packets, (0,))
        sizes = np.ones(len(packets), dtype=np.int64)
        result = switch.classify_arrays(keys, sizes)
        assert isinstance(result, ClassifiedArrays)
        actions, tables, entries = result
        assert actions.tolist() == ["drop", "quarantine", "allow", "drop", "quarantine"]
        assert tables.tolist() == ["first", "second", None, "first", "second"]
        assert entries.tolist() == result.verdicts.entries.tolist()

    def test_plain_triple_converts_back_to_codes(self):
        """What a stand-in classify_arrays returns still yields verdicts."""
        switch = self._switch()
        packets = self._packets()
        keys = Packet.batch_keys(packets, (0,))
        result = switch.classify_arrays(keys, np.ones(len(packets), dtype=np.int64))
        plain = tuple(a.copy() for a in result)
        plain[0][2] = "drop"
        converted = verdicts_of(plain, ("first", "second"))
        expected = list(result.verdicts)
        expected[2] = Verdict("drop")
        assert list(converted) == expected


class TestRegister:
    def test_read_write(self):
        switch = make_switch()
        register = switch.register("counts", 4)
        register.write(2, 41)
        assert register.increment(2) == 42
        assert register.read(2) == 42

    def test_same_name_same_register(self):
        switch = make_switch()
        assert switch.register("r", 2) is switch.register("r")

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Register("r", 0)

    def test_out_of_bounds(self):
        register = Register("r", 2)
        with pytest.raises(IndexError):
            register.read(5)
