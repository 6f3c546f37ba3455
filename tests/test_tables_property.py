"""Property-based semantics tests for the match-action tables.

Where ``test_batch_differential.py`` holds the compiled batch lookup
equal to the scalar ``lookup``, this suite pins down what both are
*supposed* to compute — the P4 semantics themselves, checked against
brute-force oracles over the entry lists:

* ternary: the highest-priority matching entry wins, insertion order
  breaking ties (the P4Runtime convention);
* LPM: the longest matching prefix wins regardless of insertion order;
* range: the per-byte intervals are closed (``lo`` and ``hi`` inclusive).

Each property is asserted on the scalar path and then on the batch path
with the scalar result as the oracle, so a bug in shared semantics cannot
hide behind path agreement.

The ``TestCompiled*`` classes aim the strategies at the rule-set shapes
most likely to break a per-byte bitmap compiler — wildcard and nibble
masks, adjacent/overlapping LPM prefixes, degenerate (single-value and
full-byte) ranges, and >64 entries so the winning bit crosses the
uint64 bitmask word boundary — and assert compiled == scalar on random
packet key batches, counters included.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane.compiled import CompiledClassifier
from repro.dataplane.tables import LpmTable, RangeTable, TernaryTable

key_byte = st.integers(0, 255)


def key_bytes(width):
    return st.lists(key_byte, min_size=width, max_size=width).map(tuple)


def batch_lookup(table, keys, sizes=None):
    """One compiled batch lookup of ``table``."""
    return CompiledClassifier().lookup_batch(table, keys, packet_sizes=sizes)


def batch_action(table, key):
    """Single-key action via the batch path (fresh result, no oracle reuse)."""
    result = batch_lookup(table, np.array([key], dtype=np.uint8))
    return result.actions[result.action_code[0]], (
        int(result.entry_id[0]) if result.hit[0] else None
    )


class TestTernaryPriorityOrdering:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_highest_priority_match_wins(self, data):
        width = data.draw(st.integers(1, 3))
        entries = data.draw(
            st.lists(
                st.tuples(
                    key_bytes(width),        # value
                    key_bytes(width),        # mask
                    st.integers(0, 5),       # priority
                ),
                min_size=1,
                max_size=8,
            )
        )
        table = TernaryTable("t", width)
        records = []  # (priority, insertion_order, entry_id, value, mask)
        for order, (value, mask, priority) in enumerate(entries):
            entry_id = table.add(value, mask, f"a{order}", priority=priority)
            records.append((priority, order, entry_id, value, mask))
        key = data.draw(key_bytes(width))

        matching = [
            record
            for record in records
            if all(
                (k & m) == (v & m)
                for k, v, m in zip(key, record[3], record[4])
            )
        ]
        result = table.lookup(key)
        if not matching:
            assert not result.hit
        else:
            # Oracle: max priority, then earliest insertion.
            expected = min(matching, key=lambda r: (-r[0], r[1]))
            assert result.hit and result.entry_id == expected[2]
            assert result.priority == expected[0]
        action, entry_id = batch_action(table, key)
        assert (action, entry_id) == (result.action, result.entry_id)


class TestLpmLongestPrefixWins:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_longest_matching_prefix_wins(self, data):
        width = data.draw(st.integers(1, 3))
        total_bits = 8 * width
        entries = data.draw(
            st.lists(
                st.tuples(key_bytes(width), st.integers(0, total_bits)),
                min_size=1,
                max_size=8,
                unique_by=lambda e: (
                    e[1],
                    int.from_bytes(bytes(e[0]), "big")
                    >> (8 * len(e[0]) - e[1]) if e[1] else 0,
                ),
            )
        )
        table = LpmTable("t", width)
        installed = []  # (prefix_len, prefix_value, entry_id)
        for index, (key, prefix_len) in enumerate(entries):
            entry_id = table.add(key, prefix_len, f"a{index}")
            key_int = int.from_bytes(bytes(key), "big")
            value = key_int >> (total_bits - prefix_len) if prefix_len else 0
            installed.append((prefix_len, value, entry_id))
        key = data.draw(key_bytes(width))
        key_int = int.from_bytes(bytes(key), "big")

        matching = [
            record
            for record in installed
            if (key_int >> (total_bits - record[0]) if record[0] else 0)
            == record[1]
        ]
        result = table.lookup(key)
        if not matching:
            assert not result.hit
        else:
            expected = max(matching, key=lambda r: r[0])
            assert result.hit and result.entry_id == expected[2]
        action, entry_id = batch_action(table, key)
        assert (action, entry_id) == (result.action, result.entry_id)


class TestRangeBoundaryInclusivity:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_closed_interval_boundaries(self, data):
        width = data.draw(st.integers(1, 3))
        ranges = []
        for __ in range(width):
            lo = data.draw(key_byte)
            ranges.append((lo, data.draw(st.integers(lo, 255))))
        table = RangeTable("t", width, default_action="allow")
        entry_id = table.add(ranges, "drop")

        # Both endpoints of every byte interval are included...
        for boundary in (0, 1):
            key = tuple(r[boundary] for r in ranges)
            result = table.lookup(key)
            assert result.hit and result.entry_id == entry_id
            assert batch_action(table, key) == ("drop", entry_id)

        # ...and stepping any single byte just outside the interval misses.
        for position, (lo, hi) in enumerate(ranges):
            for outside in (lo - 1, hi + 1):
                if not 0 <= outside <= 255:
                    continue
                key = tuple(
                    outside if index == position else r[0]
                    for index, r in enumerate(ranges)
                )
                result = table.lookup(key)
                assert not result.hit
                assert batch_action(table, key) == ("allow", None)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_first_priority_match_scalar_oracle(self, data):
        width = data.draw(st.integers(1, 2))
        table = RangeTable("t", width)
        count = data.draw(st.integers(0, 6))
        for index in range(count):
            ranges = []
            for __ in range(width):
                lo = data.draw(key_byte)
                ranges.append((lo, data.draw(st.integers(lo, 255))))
            table.add(ranges, f"a{index}", priority=data.draw(st.integers(0, 3)))
        keys = np.array(
            data.draw(st.lists(key_bytes(width), min_size=1, max_size=16)),
            dtype=np.uint8,
        )
        batch = batch_lookup(table, keys.copy())
        for row, key in enumerate(keys):
            result = table.lookup(tuple(int(b) for b in key))
            assert batch.actions[batch.action_code[row]] == result.action
            expected = result.entry_id if result.entry_id is not None else -1
            assert int(batch.entry_id[row]) == expected


# -- adversarial shapes for the compiled LUT path ---------------------------

#: Masks weighted toward the adversarial shapes: full wildcard, exact,
#: and the nibble/partial masks a per-byte LUT must honour bit-wise.
wildcard_mask_byte = st.sampled_from(
    [0x00, 0xFF, 0xF0, 0x0F, 0xAA, 0x80, 0x01]
) | st.integers(0, 255)


def wildcard_masks(width):
    return st.lists(
        wildcard_mask_byte, min_size=width, max_size=width
    ).map(tuple)


def _assert_compiled_matches_scalar(oracle, compiled_instance, keys):
    """Per-key scalar reference vs one compiled batch, counters included.

    ``oracle`` and ``compiled_instance`` are two identically built
    tables, so direct counters must end up identical too.
    """
    sizes = np.arange(len(keys), dtype=np.int64) + 1
    batch = batch_lookup(compiled_instance, keys, sizes)
    for row, key in enumerate(keys):
        result = oracle.lookup(
            tuple(int(b) for b in key), packet_size=int(sizes[row])
        )
        assert bool(batch.hit[row]) == result.hit
        expected = result.entry_id if result.entry_id is not None else -1
        assert int(batch.entry_id[row]) == expected
        assert batch.actions[batch.action_code[row]] == result.action
        assert int(batch.priority[row]) == result.priority
    assert {
        eid: (c.packets, c.bytes) for eid, c in oracle.counters.items()
    } == {
        eid: (c.packets, c.bytes)
        for eid, c in compiled_instance.counters.items()
    }
    assert (
        oracle.default_counter.packets,
        oracle.default_counter.bytes,
    ) == (
        compiled_instance.default_counter.packets,
        compiled_instance.default_counter.bytes,
    )


def _key_batch(data, width, max_keys=24):
    count = data.draw(st.integers(1, max_keys), label="n_keys")
    return np.array(
        data.draw(
            st.lists(key_bytes(width), min_size=count, max_size=count),
            label="keys",
        ),
        dtype=np.uint8,
    ).reshape(count, width)


class TestCompiledTernaryWildcards:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_compiled_equals_scalar_on_wildcard_masks(self, data):
        width = data.draw(st.integers(1, 3), label="width")
        entries = data.draw(
            st.lists(
                st.tuples(
                    key_bytes(width),
                    wildcard_masks(width),
                    st.integers(0, 4),
                ),
                min_size=0,
                max_size=10,
            ),
            label="entries",
        )
        tables = []
        for __ in range(2):
            table = TernaryTable("t", width)
            for index, (value, mask, priority) in enumerate(entries):
                table.add(value, mask, f"a{index}", priority=priority)
            tables.append(table)
        _assert_compiled_matches_scalar(
            tables[0], tables[1], _key_batch(data, width)
        )

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_compiled_crosses_bitmask_word_boundary(self, data):
        """>64 entries: winners land in words 0, 1, and 2."""
        seed = data.draw(st.integers(0, 2**16), label="seed")
        count = data.draw(st.integers(65, 140), label="entries")
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 16, size=(count, 2))
        masks = rng.choice([0x00, 0x0F, 0xFF], size=(count, 2))
        priorities = rng.integers(0, 3, size=count)
        tables = []
        for __ in range(2):
            table = TernaryTable("t", 2, max_entries=256)
            for i in range(count):
                table.add(
                    tuple(int(v) for v in values[i]),
                    tuple(int(m) for m in masks[i]),
                    f"a{i}",
                    priority=int(priorities[i]),
                )
            tables.append(table)
        keys = rng.integers(0, 16, size=(32, 2)).astype(np.uint8)
        _assert_compiled_matches_scalar(tables[0], tables[1], keys)


class TestCompiledLpmAdjacency:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_compiled_equals_scalar_on_adjacent_prefixes(self, data):
        """Nested/adjacent prefixes: every length from a common stem."""
        width = data.draw(st.integers(1, 3), label="width")
        total_bits = 8 * width
        stem = data.draw(key_bytes(width), label="stem")
        lengths = data.draw(
            st.lists(
                st.integers(0, total_bits), min_size=1, max_size=8, unique=True
            ),
            label="lengths",
        )
        extras = data.draw(
            st.lists(
                st.tuples(key_bytes(width), st.integers(0, total_bits)),
                max_size=4,
            ),
            label="extras",
        )
        tables = []
        for __ in range(2):
            table = LpmTable("t", width)
            index = 0
            # A chain of nested prefixes of one stem (adjacent lengths
            # overlap by construction), plus unrelated scattered routes.
            for prefix_len in lengths:
                table.add(stem, prefix_len, f"chain{index}")
                index += 1
            for key, prefix_len in extras:
                try:
                    table.add(key, prefix_len, f"extra{index}")
                except Exception:
                    pass  # duplicate prefix: both instances skip alike
                index += 1
            tables.append(table)
        # Bias half the probe keys onto the stem so the chain is hit.
        random_keys = _key_batch(data, width)
        stem_keys = np.tile(np.array(stem, dtype=np.uint8), (4, 1))
        stem_keys[1:, -1] ^= np.array([1, 0x80, 0xFF], dtype=np.uint8)
        keys = np.vstack([random_keys, stem_keys])
        _assert_compiled_matches_scalar(tables[0], tables[1], keys)


class TestCompiledRangeDegeneracy:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_compiled_equals_scalar_on_degenerate_ranges(self, data):
        """Single-value, full-byte, and boundary-pinned intervals."""
        width = data.draw(st.integers(1, 3), label="width")
        count = data.draw(st.integers(0, 8), label="entries")
        entries = []
        for __ in range(count):
            ranges = []
            for __b in range(width):
                shape = data.draw(
                    st.sampled_from(["point", "full", "low", "high", "any"])
                )
                if shape == "point":
                    lo = data.draw(key_byte)
                    ranges.append((lo, lo))
                elif shape == "full":
                    ranges.append((0, 255))
                elif shape == "low":
                    ranges.append((0, data.draw(key_byte)))
                elif shape == "high":
                    lo = data.draw(key_byte)
                    ranges.append((lo, 255))
                else:
                    lo = data.draw(key_byte)
                    ranges.append((lo, data.draw(st.integers(lo, 255))))
            entries.append((tuple(ranges), data.draw(st.integers(0, 3))))
        tables = []
        for __ in range(2):
            table = RangeTable("t", width)
            for index, (ranges, priority) in enumerate(entries):
                table.add(ranges, f"a{index}", priority=priority)
            tables.append(table)
        keys = _key_batch(data, width)
        # Pin some probes exactly onto interval endpoints.
        if entries:
            endpoint = np.array(
                [[r[0] for r in entries[0][0]], [r[1] for r in entries[0][0]]],
                dtype=np.uint8,
            )
            keys = np.vstack([keys, endpoint])
        _assert_compiled_matches_scalar(tables[0], tables[1], keys)
