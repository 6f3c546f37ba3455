"""Direct counters as arrays: counter-row reuse under random churn.

Each table keeps its direct counters in two int64 arrays with one row
per live entry; ``remove`` and ``clear`` free rows that the next
``add`` takes again.  This property drives a table of every kind
through random sequences of installs, removes, clears, scalar lookups,
compiled batch lookups (``CompiledClassifier.lookup_batch`` and a
one-table switch's ``classify_arrays``) and ``default_action`` changes,
and checks after every step that

* ``counters``, ``default_counter`` and ``hit_count`` equal those of an
  identically driven table that only ever saw scalar lookups, and a
  plain per-entry model of what those lookups hit;
* an entry added into a freed row starts at zero;
* batch verdict codes follow a ``default_action`` change without a
  recompile.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane.compiled import CompiledClassifier
from repro.dataplane.switch import ACTION_CODES, Switch, SwitchConfig
from repro.dataplane.tables import (
    EntryExistsError,
    ExactTable,
    LpmTable,
    RangeTable,
    TableFullError,
    TernaryTable,
)

KINDS = {
    "ternary": TernaryTable,
    "range": RangeTable,
    "exact": ExactTable,
    "lpm": LpmTable,
}
WIDTH = 2
CAPACITY = 5
#: ``count`` does not end the pipeline: a switch lets such keys through.
ACTIONS = ("allow", "drop", "quarantine", "count")

small_byte = st.integers(0, 7)
small_key = st.tuples(*[small_byte] * WIDTH)
action = st.sampled_from(ACTIONS)


def _entry(kind):
    """Strategy for one ``add``'s arguments on a table of ``kind``."""
    if kind == "ternary":
        mask = st.tuples(*[st.sampled_from([0x00, 0x03, 0x07, 0xFF])] * WIDTH)
        return st.tuples(small_key, mask, action, st.integers(0, 2))
    if kind == "range":
        bounds = st.tuples(small_byte, small_byte).map(lambda b: (min(b), max(b)))
        return st.tuples(st.tuples(*[bounds] * WIDTH), action, st.integers(0, 2))
    if kind == "exact":
        return st.tuples(small_key, action)
    return st.tuples(small_key, st.integers(0, 8 * WIDTH), action)


def _add(table, kind, args):
    if kind in ("ternary", "range"):
        *fields, priority = args
        return table.add(*fields, priority=priority)
    return table.add(*args)


def _keys(data):
    count = data.draw(st.integers(1, 8), label="batch size")
    keys = data.draw(st.lists(small_key, min_size=count, max_size=count))
    sizes = data.draw(st.lists(st.integers(0, 1500), min_size=count, max_size=count))
    return np.array(keys, dtype=np.uint8), np.array(sizes, dtype=np.int64)


def _snapshot(table):
    return (
        {eid: (c.packets, c.bytes) for eid, c in table.counters.items()},
        (table.default_counter.packets, table.default_counter.bytes),
        {eid: table.hit_count(eid) for eid in table.counters},
    )


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(KINDS)), data=st.data())
def test_counter_rows_follow_scalar_oracle(kind, data):
    make = KINDS[kind]
    oracle = make("t", WIDTH, max_entries=CAPACITY)
    table = make("t", WIDTH, max_entries=CAPACITY)
    switch = Switch(SwitchConfig(key_offsets=tuple(range(WIDTH))))
    switch.add_table(table)
    classifier = CompiledClassifier()
    # What the scalar lookups say every live entry and the default saw.
    model = {}
    default = [0, 0]
    compiled = False  # the switch's program is current

    def scalar(key, size):
        """One oracle lookup, mirrored into the model; its outcome."""
        result = oracle.lookup(key, packet_size=size)
        cell = model[result.entry_id] if result.hit else default
        cell[0] += 1
        cell[1] += size
        return result

    steps = data.draw(st.integers(1, 30), label="steps")
    for __ in range(steps):
        op = data.draw(
            st.sampled_from(["add", "remove", "clear", "lookup", "batch", "switch", "default"]),
            label="op",
        )
        if op == "add":
            args = data.draw(_entry(kind), label="entry")
            try:
                entry_id = _add(oracle, kind, args)
            except (EntryExistsError, TableFullError) as exc:
                try:
                    _add(table, kind, args)
                except type(exc):
                    continue
                raise AssertionError(f"only the oracle raised {exc!r}")
            assert _add(table, kind, args) == entry_id
            # A reused row must not carry the removed entry's counts.
            assert table.hit_count(entry_id) == 0
            assert (table.counters[entry_id].packets, table.counters[entry_id].bytes) == (0, 0)
            model[entry_id] = [0, 0]
            compiled = False
        elif op == "remove":
            if not model:
                continue
            entry_id = data.draw(st.sampled_from(sorted(model)), label="entry id")
            oracle.remove(entry_id)
            table.remove(entry_id)
            del model[entry_id]
            compiled = False
        elif op == "clear":
            oracle.clear()
            table.clear()
            model.clear()
            compiled = False
        elif op == "default":
            oracle.default_action = table.default_action = data.draw(action, label="default")
        elif op == "lookup":
            key = data.draw(small_key, label="key")
            size = data.draw(st.integers(0, 1500), label="size")
            expected = scalar(key, size)
            assert table.lookup(key, packet_size=size) == expected
        elif op == "batch":
            keys, sizes = _keys(data)
            batch = classifier.lookup_batch(table, keys, sizes)
            for row, (key, size) in enumerate(zip(keys.tolist(), sizes.tolist())):
                expected = scalar(tuple(key), size)
                assert bool(batch.hit[row]) == expected.hit
                assert batch.actions[batch.action_code[row]] == expected.action
                assert int(batch.entry_id[row]) == (
                    expected.entry_id if expected.hit else -1
                )
        else:  # one-table switch: per-slot verdict codes, counted in account
            keys, sizes = _keys(data)
            generation = switch.compiled_generation
            verdicts = switch.classify_arrays(keys, sizes).verdicts
            if compiled:
                # No entry changed since the last switch batch: a
                # default_action change alone must not recompile.
                assert switch.compiled_generation == generation
            compiled = True
            for row, (key, size) in enumerate(zip(keys.tolist(), sizes.tolist())):
                expected = scalar(tuple(key), size)
                if expected.action in ACTION_CODES:
                    code, table_idx = ACTION_CODES[expected.action], 0
                    entry_id = expected.entry_id if expected.hit else -1
                else:  # not terminal: the pipeline's default allow
                    code, table_idx, entry_id = ACTION_CODES["allow"], -1, -1
                assert int(verdicts.codes[row]) == code
                assert int(verdicts.table_idx[row]) == table_idx
                assert int(verdicts.entries[row]) == entry_id
        expected_counts = {eid: tuple(cell) for eid, cell in model.items()}
        assert _snapshot(oracle) == _snapshot(table)
        assert _snapshot(table)[0] == expected_counts
        assert _snapshot(table)[1] == tuple(default)
