"""Tests for repro.dataplane.tables."""

import pytest

from repro.dataplane.tables import (
    EntryExistsError,
    ExactTable,
    LpmTable,
    RangeTable,
    TableFullError,
    TernaryTable,
)


class TestExactTable:
    def test_hit_and_miss(self):
        table = ExactTable("t", 2)
        table.add((1, 2), "drop")
        assert table.lookup((1, 2)).action == "drop"
        miss = table.lookup((1, 3))
        assert not miss.hit and miss.action == "allow"

    def test_duplicate_key_rejected(self):
        table = ExactTable("t", 1)
        table.add((1,), "drop")
        with pytest.raises(EntryExistsError):
            table.add((1,), "allow")

    def test_capacity_enforced(self):
        table = ExactTable("t", 1, max_entries=2)
        table.add((1,), "drop")
        table.add((2,), "drop")
        with pytest.raises(TableFullError):
            table.add((3,), "drop")
        assert table.free_entries == 0

    def test_remove_frees_entry(self):
        table = ExactTable("t", 1, max_entries=1)
        entry_id = table.add((1,), "drop")
        table.remove(entry_id)
        table.add((2,), "drop")  # no TableFullError
        assert table.lookup((1,)).action == "allow"

    def test_remove_unknown(self):
        with pytest.raises(KeyError):
            ExactTable("t", 1).remove(99)

    def test_key_width_checked(self):
        table = ExactTable("t", 2)
        with pytest.raises(ValueError):
            table.add((1,), "drop")
        with pytest.raises(ValueError):
            table.lookup((1, 2, 3))

    def test_key_byte_range_checked(self):
        with pytest.raises(ValueError):
            ExactTable("t", 1).add((256,), "drop")

    def test_counters(self):
        table = ExactTable("t", 1)
        entry_id = table.add((1,), "drop")
        table.lookup((1,), packet_size=100)
        table.lookup((1,), packet_size=50)
        table.lookup((9,), packet_size=10)
        assert table.hit_count(entry_id) == 2
        assert table.counters[entry_id].bytes == 150
        assert table.default_counter.packets == 1


class TestTernaryTable:
    def test_masked_match(self):
        table = TernaryTable("t", 2)
        table.add((0x10, 0x00), (0xF0, 0x00), "drop")
        assert table.lookup((0x1F, 0xAB)).action == "drop"
        assert table.lookup((0x2F, 0xAB)).action == "allow"

    def test_priority_wins(self):
        table = TernaryTable("t", 1)
        table.add((0,), (0,), "allow", priority=1)   # matches everything
        table.add((5,), (255,), "drop", priority=10)
        assert table.lookup((5,)).action == "drop"
        assert table.lookup((6,)).action == "allow"

    def test_insertion_order_breaks_ties(self):
        table = TernaryTable("t", 1)
        table.add((0,), (0,), "drop", priority=1)
        table.add((0,), (0,), "allow", priority=1)
        assert table.lookup((7,)).action == "drop"

    def test_clear(self):
        table = TernaryTable("t", 1)
        table.add((1,), (255,), "drop")
        table.clear()
        assert len(table) == 0
        assert table.lookup((1,)).action == "allow"

    def test_tcam_bits(self):
        table = TernaryTable("t", 3)
        table.add((0, 0, 0), (0, 0, 0), "drop")
        table.add((1, 1, 1), (255, 255, 255), "drop")
        assert table.tcam_bits() == 2 * 24 * 2

    def test_remove(self):
        table = TernaryTable("t", 1)
        entry_id = table.add((1,), (255,), "drop")
        table.remove(entry_id)
        assert table.lookup((1,)).action == "allow"
        with pytest.raises(KeyError):
            table.remove(entry_id)

    def test_capacity(self):
        table = TernaryTable("t", 1, max_entries=1)
        table.add((1,), (255,), "drop")
        with pytest.raises(TableFullError):
            table.add((2,), (255,), "drop")


class TestTernaryTieBreak:
    """Regression lock for the equal-priority tie-break contract.

    Equal-priority overlapping entries resolve by **insertion order**
    (earliest ``add`` wins, the P4Runtime convention) — and the
    tie-break tracks the add *sequence*, so removing and re-installing
    an entry demotes it to the back of its priority band.  The scalar
    scan and the compiled LUT program must resolve ties identically; a
    compiler that ordered entries by id or by specificity instead would
    silently change verdicts here.
    """

    @staticmethod
    def _all_paths(table):
        """(action, entry_id) per path for the always-matching key (7,)."""
        import numpy as np

        from repro.dataplane.compiled import CompiledClassifier

        scalar = table.lookup((7,))
        compiled = CompiledClassifier().lookup_batch(
            table, np.array([[7]], dtype=np.uint8)
        )
        results = {
            "scalar": (scalar.action, scalar.entry_id),
            "compiled": (
                compiled.actions[compiled.action_code[0]],
                int(compiled.entry_id[0]) if compiled.hit[0] else None,
            ),
        }
        assert results["compiled"] == results["scalar"]
        return results["scalar"]

    def test_earliest_insertion_wins_on_all_paths(self):
        table = TernaryTable("t", 1)
        first = table.add((0,), (0,), "drop", priority=2)
        table.add((0,), (0,), "allow", priority=2)
        table.add((0,), (0,), "quarantine", priority=2)
        assert self._all_paths(table) == ("drop", first)

    def test_higher_priority_still_beats_earlier_insertion(self):
        table = TernaryTable("t", 1)
        table.add((0,), (0,), "drop", priority=1)
        winner = table.add((0,), (0,), "allow", priority=3)
        assert self._all_paths(table) == ("allow", winner)

    def test_reinstall_moves_entry_to_back_of_its_band(self):
        """Remove + re-add demotes: the tie-break is add order, not id."""
        table = TernaryTable("t", 1)
        first = table.add((0,), (0,), "drop", priority=1)
        table.add((0,), (0,), "allow", priority=1)
        assert self._all_paths(table) == ("drop", first)
        table.remove(first)
        reinstalled = table.add((0,), (0,), "drop", priority=1)
        # The surviving "allow" entry is now the earliest insertion.
        action, entry_id = self._all_paths(table)
        assert action == "allow"
        assert entry_id != reinstalled


class TestRangeTable:
    def test_range_match(self):
        table = RangeTable("t", 2)
        table.add([(10, 20), (0, 255)], "drop")
        assert table.lookup((15, 200)).action == "drop"
        assert table.lookup((21, 200)).action == "allow"

    def test_priority(self):
        table = RangeTable("t", 1)
        table.add([(0, 255)], "allow", priority=0)
        table.add([(100, 110)], "drop", priority=5)
        assert table.lookup((105,)).action == "drop"
        assert table.lookup((99,)).action == "allow"

    def test_invalid_ranges(self):
        table = RangeTable("t", 1)
        with pytest.raises(ValueError):
            table.add([(20, 10)], "drop")
        with pytest.raises(ValueError):
            table.add([(0, 10), (0, 10)], "drop")  # wrong width

    def test_remove(self):
        table = RangeTable("t", 1)
        entry_id = table.add([(0, 255)], "drop")
        table.remove(entry_id)
        assert table.lookup((0,)).action == "allow"


class TestLpmTable:
    def test_longest_prefix_wins(self):
        table = LpmTable("t", 4)
        table.add((192, 168, 0, 0), 16, "allow")
        table.add((192, 168, 1, 0), 24, "drop")
        assert table.lookup((192, 168, 1, 5)).action == "drop"
        assert table.lookup((192, 168, 2, 5)).action == "allow"
        assert table.lookup((10, 0, 0, 1)).action == "allow"  # default

    def test_zero_length_prefix_is_catch_all(self):
        table = LpmTable("t", 1)
        table.add((0,), 0, "drop")
        assert table.lookup((123,)).action == "drop"

    def test_duplicate_prefix_rejected(self):
        table = LpmTable("t", 1)
        table.add((128,), 1, "drop")
        with pytest.raises(EntryExistsError):
            table.add((255,), 1, "allow")  # same top bit

    def test_invalid_prefix_len(self):
        table = LpmTable("t", 1)
        with pytest.raises(ValueError):
            table.add((0,), 9, "drop")

    def test_remove(self):
        table = LpmTable("t", 1)
        entry_id = table.add((128,), 1, "drop")
        table.remove(entry_id)
        assert table.lookup((200,)).action == "allow"
