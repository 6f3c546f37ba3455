"""Class-chain classification vs the bitmap path and the scalar oracle.

A table whose key bytes cross-product within ``CLASS_BUDGET`` cells
classifies through its :class:`~repro.dataplane.compiled.ClassChain`:
byte classes, product tables, and a final cell -> slot table with
a crowded flag per cell for shadow hits.  Every other table stays on
the per-byte LUT bitmaps.  Both must give each key the same slot, and
the same shadow-hit count, as the bitmap AND over the same program
(``chain`` dropped) and as the scalar ``lookup`` scan.

Random exact, ternary, range and LPM tables (width 1 to 4, empty
tables, all-wildcard entries, equal priorities, duplicate entries) are
classified with the budget set exactly at the table's largest product
(the chain is built) and one cell under it (the table stays on
bitmaps); two fixed tables sit just under and just over the real
4,096-cell budget.  Add/remove churn goes through the classifier's
lazy rebuilds, including a rule set removed and added back, whose
program reuses the earlier LUTs and chain under new entry ids.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane import Switch, SwitchConfig
from repro.dataplane import compiled
from repro.dataplane.compiled import CompiledClassifier, compile_table
from repro.dataplane.tables import (
    EntryExistsError,
    ExactTable,
    LpmTable,
    RangeTable,
    TernaryTable,
)
from repro.net.packet import Packet

KINDS = ("exact", "ternary", "range", "lpm")
ACTIONS = ("drop", "allow", "quarantine", "continue")
#: Few distinct bytes, so entries overlap, repeat and share classes.
BYTES = st.sampled_from((0, 1, 7, 64, 128, 200, 255))
MASKS = st.sampled_from((0x00, 0x00, 0x0F, 0xF0, 0xFF, 0xFF, 0x81))


@st.composite
def table_specs(draw, width=None):
    width = width or draw(st.integers(1, 4))
    kind = draw(st.sampled_from(KINDS))
    row = st.lists(BYTES, min_size=width, max_size=width).map(tuple)
    if kind == "exact":
        entries = draw(st.lists(row, max_size=24, unique=True))
    elif kind == "ternary":
        entry = st.tuples(
            row,
            st.lists(MASKS, min_size=width, max_size=width).map(tuple),
            st.integers(0, 2),  # equal priorities
        )
        pool = draw(st.lists(entry, min_size=1, max_size=12))
        entries = draw(st.lists(st.sampled_from(pool), max_size=30))  # duplicates
    elif kind == "range":
        bounds = st.lists(
            st.tuples(BYTES, BYTES).map(sorted).map(tuple), min_size=width, max_size=width
        ).map(tuple)
        pool = draw(st.lists(st.tuples(bounds, st.integers(0, 2)), min_size=1, max_size=12))
        entries = draw(st.lists(st.sampled_from(pool), max_size=30))
    else:
        entries = draw(
            st.lists(st.tuples(row, st.integers(0, 8 * width)), max_size=24)
        )
    actions = draw(st.lists(st.sampled_from(ACTIONS), min_size=len(entries), max_size=len(entries)))
    return kind, width, entries, actions


def build(spec):
    kind, width, entries, actions = spec
    if kind == "exact":
        table = ExactTable("t", width)
        for key, action in zip(entries, actions):
            table.add(key, action)
    elif kind == "ternary":
        table = TernaryTable("t", width)
        for (value, mask, priority), action in zip(entries, actions):
            table.add(value, mask, action, priority=priority)
    elif kind == "range":
        table = RangeTable("t", width)
        for (ranges, priority), action in zip(entries, actions):
            table.add(ranges, action, priority=priority)
    else:
        table = LpmTable("t", width)
        for (key, prefix_len), action in zip(entries, actions):
            try:
                table.add(key, prefix_len, action)
            except EntryExistsError:
                pass
    return table


def probe_keys(program, rng, n=256) -> np.ndarray:
    """Keys that visit every byte class: one byte of each per position."""
    columns = []
    for lut in program.luts:
        __, firsts = np.unique(lut, axis=0, return_index=True)
        choices = np.concatenate([firsts, rng.integers(0, 256, size=4)])
        columns.append(rng.choice(choices, size=n))
    return np.stack(columns, axis=1).astype(np.uint8)


def scalar(table, keys):
    """Winning entry ids (-1: miss) and multi-match keys, one scan per key."""
    ids, crowded = [], 0
    for key in map(tuple, keys.tolist()):
        found = table.lookup(key)
        ids.append(found.entry_id if found.hit else -1)
        if isinstance(table, (TernaryTable, RangeTable)):
            crowded += sum(table._matches(key, r) for r in table.entries()) >= 2
    return ids, crowded


def assert_classifies(table, program, keys):
    """Chain (or bitmaps), bitmaps alone and the scalar scan agree."""
    slot, shadows = program.classify(keys, count_shadows=True)
    bitmaps = dataclasses.replace(program, chain=None)
    want_slot, want_shadows = bitmaps.classify(keys, count_shadows=True)
    assert slot.tolist() == want_slot.tolist()
    assert shadows == want_shadows
    ids, crowded = scalar(table, keys)
    assert program.entry_ids[slot].tolist() == ids
    assert shadows == crowded


def products(chain, width):
    """Cells of each cross product a chain formed."""
    return [len(t) for t in chain.tables] + ([len(chain.slot_of)] if width > 1 else [])


@settings(max_examples=200, deadline=None)
@given(spec=table_specs(), seed=st.integers(0, 2**16))
def test_chain_matches_bitmaps_and_scalar_at_the_budget_edge(spec, seed):
    table = build(spec)
    width = table.key_width
    with mock.patch.object(compiled, "CLASS_BUDGET", 10**9):
        unbounded = compile_table(table)
    assert unbounded.chain is not None
    largest = max(products(unbounded.chain, width), default=0)
    keys = probe_keys(unbounded, np.random.default_rng(seed))
    for budget in (largest, largest - 1):
        with mock.patch.object(compiled, "CLASS_BUDGET", budget):
            program = compile_table(table)
        fits = unbounded.entries < budget and largest <= budget
        assert (program.chain is not None) == fits
        if fits:
            assert program.chain.cells == unbounded.chain.cells
        assert_classifies(table, program, keys)


@settings(max_examples=60, deadline=None)
@given(
    spec=table_specs(),
    churn=st.lists(st.tuples(st.booleans(), st.integers(0, 2**16)), min_size=1, max_size=8),
    seed=st.integers(0, 2**16),
)
def test_churn_through_lazy_rebuilds(spec, churn, seed):
    """Adds and removes between batches; every rebuild classifies right."""
    kind, width, __, __a = spec
    if kind not in ("ternary", "range"):
        return  # the priority tables carry remove-by-id churn
    table = build(spec)
    classifier = CompiledClassifier()
    rng = np.random.default_rng(seed)
    for add, pick in churn:
        ids = [r.entry_id for r in table.entries()]
        if add or not ids:
            if kind == "ternary":
                value = tuple(int(b) for b in rng.choice([0, 7, 128, 255], size=width))
                mask = tuple(int(b) for b in rng.choice([0, 0xF0, 0xFF], size=width))
                table.add(value, mask, ACTIONS[pick % 4], priority=pick % 3)
            else:
                lows = rng.choice([0, 7, 128], size=width)
                ranges = tuple((int(lo), int(lo) + int(pick % 128)) for lo in lows)
                table.add(ranges, ACTIONS[pick % 4], priority=pick % 3)
        else:
            table.remove(ids[pick % len(ids)])
        program = classifier.program_for(table)
        assert_classifies(table, program, probe_keys(program, rng))


def _firewall(entries):
    table = TernaryTable("fw", 3)
    for value, mask, priority in entries:
        table.add(value, mask, "drop", priority=priority)
    return table


def test_entries_swapped_back_reuse_luts_and_chain():
    """A rule set removed and added back reuses its program's build."""
    first = [((10, 0, 0), (255, 0, 0), 2), ((0, 20, 0), (0, 255, 0), 1)]
    second = [((0, 0, 30), (0, 0, 255), 1)]
    table = _firewall(first)
    classifier = CompiledClassifier()
    before = classifier.program_for(table)
    old_ids = [r.entry_id for r in table.entries()]
    table.remove_many(old_ids)
    for value, mask, priority in second:
        table.add(value, mask, "allow", priority=priority)
    middle = classifier.program_for(table)
    assert middle.luts is not before.luts
    table.remove_many([r.entry_id for r in table.entries()])
    for value, mask, priority in first:
        table.add(value, mask, "drop", priority=priority)
    after = classifier.program_for(table)
    assert after.luts is before.luts and after.chain is before.chain
    assert after.entry_ids[:2].tolist() != old_ids  # new ids, same slots
    keys = probe_keys(after, np.random.default_rng(0))
    assert_classifies(table, after, keys)
    # An explicit compile builds from scratch.
    classifier.compile([table])
    assert classifier.program_for(table).luts is not before.luts


def test_width_one_empty_and_all_wildcard_tables():
    keys = np.arange(256, dtype=np.uint8)[:, None]
    empty = TernaryTable("t", 1)
    assert_classifies(empty, compile_table(empty), keys)
    wild = TernaryTable("t", 1)
    wild.add((0,), (0,), "drop", priority=1)
    wild.add((0,), (0,), "allow", priority=1)
    wild.add((9,), (255,), "allow", priority=2)
    program = compile_table(wild)
    assert program.chain is not None and program.chain.cells == 256
    assert_classifies(wild, program, keys)
    slot, shadows = program.classify(keys, count_shadows=True)
    assert shadows == 256  # every key matches both wildcards


def _grid(rows: int, columns: int) -> TernaryTable:
    """Exact entries ``(a, b)`` for ``a < rows``, ``b < columns``.

    Byte 0 has ``rows + 1`` classes and byte 1 ``columns + 1`` (each
    listed value, and every other byte), so the final product has
    ``(rows + 1) * (columns + 1)`` cells.
    """
    table = TernaryTable("grid", 2, max_entries=rows * columns)
    values = np.array([(a, b) for a in range(rows) for b in range(columns)], dtype=np.uint8)
    table.add_many(
        values,
        np.full_like(values, 255),
        ["drop"] * len(values),
        np.arange(len(values)) % 3,
    )
    return table


@pytest.mark.parametrize("rows, fits", [(63, True), (64, False)])
def test_real_budget_edge(rows, fits):
    table = _grid(rows, 63)
    report = CompiledClassifier().compile([table])
    program = compile_table(table)
    assert (program.chain is not None) is fits
    assert report.class_cells == (64 * 64 if fits else 0)
    assert f"{report.class_cells} class cells" in str(report)
    rng = np.random.default_rng(rows)
    keys = np.concatenate([
        rng.integers(0, 70, size=(200, 2)), rng.integers(0, 256, size=(56, 2))
    ]).astype(np.uint8)
    assert_classifies(table, program, keys)


def test_default_action_change_without_recompile():
    switch = Switch(SwitchConfig(key_offsets=(0, 1, 2)))
    switch.add_table(_firewall([((1, 2, 3), (255, 255, 255), 1)]))
    switch.compile()
    assert switch._compiled.program_for(switch.table("fw")).chain is not None
    packets = [Packet(bytes((1, 2, 3))), Packet(bytes((7, 7, 7)))]
    assert [v.action for v in switch.process_batch(packets)] == ["drop", "allow"]
    generation = switch.compiled_generation
    switch.table("fw").default_action = "quarantine"
    assert [v.action for v in switch.process_batch(packets)] == ["drop", "quarantine"]
    assert switch.compiled_generation == generation
