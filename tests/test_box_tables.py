"""Box classification vs entry bitmaps and the scalar oracle.

A value/mask table that stays on bitmaps cuts its match-order entries
into *boxes* (runs that are exactly the product of their per-byte
member sets, members disjoint) and classifies over them when the boxes
pack into fewer words than the entries (class chains are switched
off here, so every table is such a table).  Every box program must give
each key the slot, entry id and shadow-hit count of the same program on
entry bitmaps (``boxes`` dropped) and of the scalar ``lookup`` scan,
and count direct counters as scalar lookups do.

Inputs: expanded ``RuleSet``s after random ``update`` diffs (kept,
removed and re-added entries in one priority band), rules installed
one entry at a time in an interleaved order, equal priorities, and
runs that only almost form a product: an entry dropped, duplicated or
moved, a member widened until it overlaps a neighbour or several, a
constant byte changed in one entry.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rules import MatchField, Rule, RuleSet
from repro.dataplane import compiled
from repro.dataplane.compiled import CompiledClassifier, compile_table
from repro.dataplane.controller import FIREWALL_TABLE, GatewayController
from repro.dataplane.tables import TernaryTable
from repro.eval.harness import synthetic_firewall_ruleset

WIDTH = 3
OFFSETS = (2, 5, 9)
ACTIONS = ("drop", "allow", "quarantine")
CAPACITY = 1 << 14


@pytest.fixture(autouse=True, scope="module")
def _no_class_chains():
    """Keep every table off class chains: only a table that would stay
    on its bitmaps classifies over boxes."""
    with mock.patch.object(compiled, "CLASS_BUDGET", 1):
        yield


@st.composite
def rules(draw, priorities=st.integers(0, 3)):
    """One rule over one or two of the key bytes (ties in priority)."""
    positions = draw(st.lists(st.integers(0, WIDTH - 1), min_size=1, max_size=2, unique=True))
    fields = []
    for position in sorted(positions):
        lo = draw(st.integers(0, 250))
        hi = draw(st.integers(lo, min(255, lo + 100)))
        fields.append(MatchField(OFFSETS[position], lo, hi))
    return Rule(tuple(fields), draw(st.sampled_from(ACTIONS)), priority=draw(priorities))


def ruleset(rule_list, default="allow") -> RuleSet:
    return RuleSet(OFFSETS, rule_list, default_action=default)


#: A clean product over bytes 0 and 2 (byte 1 wildcard): 13 byte-0
#: members covering [1, 250] times 11 byte-2 members.
PRODUCT = Rule((MatchField(OFFSETS[0], 1, 250), MatchField(OFFSETS[2], 5, 245)), "drop", 5)


@st.composite
def update_pairs(draw):
    """A rule set and a successor keeping some of its rules (and both
    :data:`PRODUCT`, so the table is wide enough for boxes)."""
    first = draw(st.lists(rules(), min_size=4, max_size=12))
    kept = [rule for rule in first if draw(st.booleans())]
    added = draw(st.lists(rules(), max_size=8))
    order = draw(st.permutations(kept + added))
    return ruleset(first + [PRODUCT]), ruleset(list(order) + [PRODUCT])


def deployed(*rule_sets) -> TernaryTable:
    """The firewall table after deploying the first set and updating
    to each later one."""
    controller = GatewayController.for_ruleset(rule_sets[0], table_capacity=CAPACITY)
    controller.deploy(rule_sets[0])
    for later in rule_sets[1:]:
        controller.update(later)
    return controller.switch.table(FIREWALL_TABLE)


def probe_keys(table, rng, n=96) -> np.ndarray:
    """Keys inside random entries (free bits random), and random keys."""
    records = table.entries()
    keys = rng.integers(0, 256, size=(n, table.key_width), dtype=np.uint8)
    if records:
        values = np.array([r.value for r in records], dtype=np.uint8)
        masks = np.array([r.mask for r in records], dtype=np.uint8)
        pick = rng.integers(0, len(records), size=3 * n // 4)
        keys[: len(pick)] = (values[pick] & masks[pick]) | (keys[: len(pick)] & ~masks[pick])
    return keys


def oracle(table, keys):
    """Scalar-scan entry ids (-1: miss) and keys matching two or more
    entries (an independent numpy count)."""
    ids = []
    for key in map(tuple, keys.tolist()):
        found = table.lookup(key)
        ids.append(found.entry_id if found.hit else -1)
    records = table.entries()
    if not records:
        return ids, 0
    values = np.array([r.value for r in records], dtype=np.uint8)
    masks = np.array([r.mask for r in records], dtype=np.uint8)
    hits = ((keys[:, None, :] ^ values[None]) & masks[None]) == 0
    return ids, int(np.count_nonzero(hits.all(axis=2).sum(axis=1) >= 2))


def assert_boxes_exact(table, program):
    """Every box is the product of its members, which are disjoint."""
    records = table.entries()
    for start, size in box_runs(program):
        run = records[start : start + size]
        rows = {tuple((v & m, m) for v, m in zip(r.value, r.mask)) for r in run}
        assert len(rows) == size  # distinct entries
        product = 1
        for j in range(table.key_width):
            members = sorted({row[j] for row in rows})
            product *= len(members)
            for index, (value, mask) in enumerate(members):
                for other, other_mask in members[index + 1 :]:
                    assert (value ^ other) & mask & other_mask, "members overlap"
        assert product == size


def assert_classifies(table, keys, *, boxed=None):
    """Boxes, entry bitmaps and the scalar scan agree; returns the program."""
    program = compile_table(table)
    if boxed is not None:
        assert (program.boxes is not None) is boxed
    if program.boxes is not None:
        assert_boxes_exact(table, program)
    slot, shadows = program.classify(keys, count_shadows=True)
    bitmaps = dataclasses.replace(program, boxes=None)
    want_slot, want_shadows = bitmaps.classify(keys, count_shadows=True)
    assert slot.tolist() == want_slot.tolist()
    assert shadows == want_shadows
    ids, crowded = oracle(table, keys)
    assert program.entry_ids[slot].tolist() == ids
    assert shadows == crowded
    return program


def box_runs(program):
    """Each box's ``(first slot, size)``."""
    starts = program.boxes.base[:-1]
    return list(zip(starts.tolist(), np.diff(starts, append=program.entries).tolist()))


@settings(max_examples=40, deadline=None)
@given(pair=update_pairs(), seed=st.integers(0, 2**16))
def test_update_diffs_classify_and_count_as_scalar(pair, seed):
    first, second = pair
    table = deployed(first, second)
    rng = np.random.default_rng(seed)
    keys = probe_keys(table, rng)
    assert_classifies(table, keys)
    # Direct counters: two more tables driven by the same updates, one
    # counted by scalar lookups, one by the compiled batch path.
    scalar, batch = deployed(first, second), deployed(first, second)
    sizes = rng.integers(40, 1500, size=len(keys))
    for key, size in zip(map(tuple, keys.tolist()), sizes.tolist()):
        scalar.lookup(key, size)
    CompiledClassifier().lookup_batch(batch, keys, sizes)
    assert batch.counters == scalar.counters
    assert batch.default_counter == scalar.default_counter


def test_wide_rule_set_is_one_box_per_rule():
    rules_ = synthetic_firewall_ruleset(n_rules=64, fields_per_rule=2, seed=0)
    other = synthetic_firewall_ruleset(n_rules=64, fields_per_rule=2, seed=1)
    controller = GatewayController.for_ruleset(rules_, table_capacity=CAPACITY)
    controller.deploy(rules_)
    table = controller.switch.table(FIREWALL_TABLE)
    rng = np.random.default_rng(0)
    program = assert_classifies(table, probe_keys(table, rng, 256), boxed=True)
    assert program.boxes.boxes == 64
    assert [size for __, size in box_runs(program)] == rules_.expand().counts.tolist()
    report = CompiledClassifier().compile([table])
    assert report.boxes == 64 and "64 boxes" in str(report)
    # Swaps that keep half the rules: the diff keeps their entries and
    # installs the others after them.
    for mixed in (rules_.rules[:32] + other.rules[32:], other.rules[:32] + rules_.rules[32:]):
        controller.update(RuleSet(rules_.offsets, mixed, default_action=rules_.default_action))
        assert_classifies(table, probe_keys(table, rng, 256), boxed=True)


@settings(max_examples=30, deadline=None)
@given(
    pair=st.lists(rules(priorities=st.just(1)), min_size=2, max_size=4),
    seed=st.integers(0, 2**16),
)
def test_interleaved_single_adds_at_equal_priority(pair, seed):
    """Entries of several rules added one at a time, interleaved."""
    arrays = ruleset(pair).expand()
    rng = np.random.default_rng(seed)
    owner = np.repeat(np.arange(len(pair)), arrays.counts)
    # A random interleaving that keeps each rule's own entry order.
    order = np.argsort(owner + rng.random(len(owner)) * rng.integers(0, 3), kind="stable")
    table = TernaryTable("t", WIDTH, max_entries=CAPACITY)
    # Pad with a clean product so the table is wide enough for boxes.
    padding = ruleset([PRODUCT]).expand()
    table.add_many(padding.values, padding.masks, padding.action_names(), padding.priorities)
    names = arrays.action_names()
    for index in order.tolist():
        table.add(
            tuple(arrays.values[index].tolist()),
            tuple(arrays.masks[index].tolist()),
            names[index],
            priority=int(arrays.priorities[index]),
        )
    assert_classifies(table, probe_keys(table, rng, 128), boxed=True)


def _installed(values, masks, priorities) -> TernaryTable:
    table = TernaryTable("t", WIDTH, max_entries=CAPACITY)
    table.add_many(values, masks, ["drop"] * len(values), priorities)
    return table


def _product():
    arrays = ruleset([PRODUCT]).expand()
    return arrays.values.copy(), arrays.masks.copy(), arrays.priorities.copy()


def _almost(kind: str, rng):
    """The product with one defect; returns ``(values, masks, priorities)``."""
    values, masks, priorities = _product()
    count = len(values)
    at = int(rng.integers(1, count - 1))
    if kind == "dropped":
        keep = np.arange(count) != at
        return values[keep], masks[keep], priorities[keep]
    if kind == "duplicated":
        index = np.insert(np.arange(count), at, at)
        return values[index], masks[index], priorities[index]
    if kind == "moved":
        index = np.arange(count)
        index[at], index[at + 1] = index[at + 1], index[at]
        return values[index], masks[index], priorities[index]
    if kind in ("overlapping", "swallowing"):
        # Widen one byte-0 member so that it overlaps others: 2/7 (2, 3)
        # becomes 0/6 (0..3), over its neighbour 1; 64/2 (64..127)
        # becomes 0/1 (0..127), over 1, 2/7, ..., 32/3.
        old, new = ((2, 0xFE), (0, 0xFC)) if kind == "overlapping" else ((64, 0xC0), (0, 0x80))
        widened = (values[:, 0] == old[0]) & (masks[:, 0] == old[1])
        values[widened, 0], masks[widened, 0] = new
        return values, masks, priorities
    if kind == "constant":
        values[at, 1], masks[at, 1] = 0x40, 0xC0
        return values, masks, priorities
    raise AssertionError(kind)


ALMOST = ["dropped", "duplicated", "moved", "overlapping", "swallowing", "constant"]


def test_clean_product_is_one_box():
    table = _installed(*_product())
    program = assert_classifies(table, probe_keys(table, np.random.default_rng(0), 256), boxed=True)
    assert box_runs(program) == [(0, 13 * 11)]


@pytest.mark.parametrize("kind", ALMOST)
@pytest.mark.parametrize("seed", range(6))
def test_runs_that_almost_form_a_product(kind, seed):
    """A defective run between two clean products, at its own priority
    or tied with a neighbour."""
    rng = np.random.default_rng(seed)
    values, masks, priorities = _almost(kind, rng)
    good_values, good_masks, good_priorities = _product()
    tied = int(seed % 2)
    table = _installed(
        np.concatenate([good_values, values, good_values]),
        np.concatenate([good_masks, masks, good_masks]),
        np.concatenate([good_priorities + 1, priorities + tied, good_priorities - 1]),
    )
    program = assert_classifies(table, probe_keys(table, rng, 256), boxed=True)
    sizes = [size for __, size in box_runs(program)]
    assert sizes[0] == 13 * 11
    assert 3 < len(sizes) <= 16  # the defective run is cut, and only it


@pytest.mark.parametrize(
    "rows, exact",
    [
        ([(1, 1), (1, 2), (2, 1), (2, 2)], True),  # 2 x 2, nested order
        ([(1, 1), (2, 1), (1, 2), (2, 2)], True),  # the other nesting
        ([(1, 1), (2, 2)], False),  # a diagonal: both bytes step together
        ([(1, 1), (1, 2), (2, 2), (2, 1)], False),  # a product, not nested
        ([(1, 1), (1, 2), (1, 1), (1, 2)], False),  # entries repeat
        ([(1, 1), (1, 2), (2, 1)], False),  # one entry short
        ([(1, 1), (1, 1)], False),  # a duplicate
    ],
)
def test_box_check_on_hand_cut_runs(rows, exact):
    """The exact check alone, on runs no candidate pass would propose."""
    values = np.array(rows, dtype=np.uint8)
    codes = compiled._member_codes(values, np.full_like(values, 0xFF))
    assert compiled._box_members(codes, np.array([0])).exact.tolist() == [exact]


def test_box_check_refuses_overlapping_members():
    values = np.array([(0, 1), (1, 1), (0, 2), (1, 2)], dtype=np.uint8)
    masks = np.array([(0xFE, 0xFF), (0xFF, 0xFF)] * 2, dtype=np.uint8)
    codes = compiled._member_codes(values, masks)
    assert compiled._box_members(codes, np.array([0])).exact.tolist() == [False]
    masks[:, 0] = 0xFF
    codes = compiled._member_codes(values, masks)
    assert compiled._box_members(codes, np.array([0])).exact.tolist() == [True]


def test_swap_back_reuses_the_box_program():
    """A rule set swapped back in borrows its earlier boxes: no box
    detection and no LUT build (a table on boxes builds none)."""
    rules_ = synthetic_firewall_ruleset(n_rules=32, fields_per_rule=2, seed=0)
    # One field per rule: no entry equals one of rules_', so swapping
    # back installs rules_' entries in their first order again.
    other = synthetic_firewall_ruleset(n_rules=32, fields_per_rule=1, seed=1)
    controller = GatewayController.for_ruleset(rules_, table_capacity=CAPACITY)
    controller.deploy(rules_)
    table = controller.switch.table(FIREWALL_TABLE)
    classifier = CompiledClassifier()
    before = classifier.program_for(table)
    assert before.boxes is not None
    controller.update(other)
    middle = classifier.program_for(table)
    assert middle.boxes is not None and middle.boxes is not before.boxes
    controller.update(rules_)
    refuse = mock.Mock(side_effect=AssertionError("rebuilt"))
    with mock.patch.object(compiled, "box_index", refuse), mock.patch.object(
        compiled, "value_mask_luts", refuse
    ):
        after = classifier.program_for(table)
    assert after.boxes is before.boxes
    keys = probe_keys(table, np.random.default_rng(0), 256)
    slot, __ = after.classify(keys)
    ids, __ = oracle(table, keys)
    assert after.entry_ids[slot].tolist() == ids
    # The LUTs keep their entry-level meaning when read.
    assert after.luts.tobytes() == compiled.value_mask_luts(
        *(np.array([getattr(r, name) for r in table.entries()], dtype=np.uint8)
          for name in ("value", "mask"))
    ).tobytes()
    # An explicit compile builds from scratch.
    classifier.compile([table])
    assert classifier.program_for(table).boxes is not before.boxes
