"""Batch rule installs against the per-entry scalar path they replace.

``GatewayController`` installs a rule set as arrays: ``RuleSet.expand``
builds every TCAM entry in one vectorised pass, ``update`` diffs packed
row keys by sort, and the table takes each change set with one
``remove_many`` and one ``add_many``.  The scalar reference here is the
controller as it was before: ``to_ternary`` objects, a dict from entry
to installed ids, and one ``TernaryTable.add`` / ``remove`` per entry,
on a twin switch.  Random sequences of ``deploy`` / ``update`` (duplicate
entries, equal priorities, all-wildcard rules, empty rule sets, default
action changes, capacity overflow) must leave both tables in the same
state: entries with their ids, counter rows and tie-break order, the
free-row stack, the controller's entry ids, the reports, direct counters
after a batch, and compiled verdicts.

An overflow consumes entry ids and tie-break orders on the scalar path
(each ``add`` that fit), never on the batch path (``add_many`` checks
capacity before any change), so from the first overflow on ids and
orders are compared relative to each table's latest (``_next_id``,
``_order``); every other field is compared as is.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rules import (
    RULE_ACTIONS,
    MatchField,
    Rule,
    RuleSet,
    TernaryEntry,
)
from repro.dataplane.controller import (
    FIREWALL_TABLE,
    DeploymentReport,
    GatewayController,
    UpdateReport,
)
from repro.dataplane.switch import Switch, SwitchConfig
from repro.dataplane.tables import TableFullError, TernaryTable
from repro.net.packet import Packet


def old_to_ternary(ruleset: RuleSet) -> List[TernaryEntry]:
    """The per-rule ``itertools.product`` expansion ``expand`` replaced."""
    entries: List[TernaryEntry] = []
    width = len(ruleset.offsets)
    position = {offset: idx for idx, offset in enumerate(ruleset.offsets)}
    for rule in ruleset.rules:
        per_field = [
            [(position[field.offset], v, m) for v, m in field.ternary_pairs()]
            for field in rule.matches
            if not field.is_wildcard
        ]
        if not per_field:
            entries.append(
                TernaryEntry((0,) * width, (0,) * width, rule.action, rule.priority)
            )
            continue
        for combination in itertools.product(*per_field):
            value = [0] * width
            mask = [0] * width
            for idx, v, m in combination:
                value[idx] = v
                mask[idx] = m
            entries.append(
                TernaryEntry(tuple(value), tuple(mask), rule.action, rule.priority)
            )
    return entries


class ScalarController:
    """The per-entry controller: dict diff, one add/remove per entry."""

    def __init__(self, offsets, capacity: int):
        self.switch = Switch(SwitchConfig(key_offsets=tuple(offsets)))
        self.table_capacity = capacity
        self.deployed: Optional[RuleSet] = None
        self._entry_ids: List[int] = []
        self._installed: List[Tuple[TernaryEntry, int]] = []

    def _table(self, default_action: str) -> TernaryTable:
        try:
            table = self.switch.table(FIREWALL_TABLE)
        except KeyError:
            table = TernaryTable(
                FIREWALL_TABLE,
                len(self.switch.config.key_offsets),
                max_entries=self.table_capacity,
                default_action=default_action,
            )
            self.switch.add_table(table)
        table.default_action = default_action
        return table

    def deploy(self, ruleset: RuleSet) -> DeploymentReport:
        table = self._table(ruleset.default_action)
        previous = self.deployed
        table.clear()
        self._entry_ids, self._installed = [], []
        entries = old_to_ternary(ruleset)
        try:
            for entry in entries:
                entry_id = table.add(
                    entry.value, entry.mask, entry.action, priority=entry.priority
                )
                self._entry_ids.append(entry_id)
                self._installed.append((entry, entry_id))
        except TableFullError:
            table.clear()
            self._entry_ids, self._installed = [], []
            self.deployed = None
            if previous is not None:
                self.deploy(previous)
            raise
        self.deployed = ruleset
        width_bits = 8 * len(ruleset.offsets)
        return DeploymentReport(
            rules=len(ruleset.rules),
            ternary_entries=len(entries),
            match_width_bits=width_bits,
            tcam_bits=2 * width_bits * len(entries),
            default_action=ruleset.default_action,
        )

    def update(self, ruleset: RuleSet) -> UpdateReport:
        if self.deployed is None or self.deployed.default_action != ruleset.default_action:
            before = len(self._entry_ids)
            self.deploy(ruleset)
            return UpdateReport(added=len(self._entry_ids), removed=before, kept=0)
        table = self._table(ruleset.default_action)
        previous = self.deployed
        available: Dict[TernaryEntry, List[int]] = {}
        for entry, entry_id in self._installed:
            available.setdefault(entry, []).append(entry_id)
        new_entries = old_to_ternary(ruleset)
        reused: List[Tuple[TernaryEntry, Optional[int]]] = []
        to_add = 0
        for entry in new_entries:
            ids = available.get(entry)
            if ids:
                reused.append((entry, ids.pop()))
            else:
                reused.append((entry, None))
                to_add += 1
        stale_ids = [eid for ids in available.values() for eid in ids]
        for entry_id in stale_ids:
            table.remove(entry_id)
        installed = []
        try:
            for entry, entry_id in reused:
                if entry_id is None:
                    entry_id = table.add(
                        entry.value, entry.mask, entry.action, priority=entry.priority
                    )
                installed.append((entry, entry_id))
        except TableFullError:
            self.deploy(previous)
            raise
        self._installed = installed
        self._entry_ids = [entry_id for __, entry_id in installed]
        self.deployed = ruleset
        return UpdateReport(
            added=to_add, removed=len(stale_ids), kept=len(new_entries) - to_add
        )


# -- strategies ----------------------------------------------------------------

# Endpoints chosen so ranges expand to one to several prefixes.
ENDPOINTS = (0, 1, 3, 4, 15, 16, 100, 127, 128, 200, 254, 255)


@st.composite
def byte_ranges(draw):
    lo, hi = sorted(draw(st.lists(st.sampled_from(ENDPOINTS), min_size=2, max_size=2)))
    return lo, hi


@st.composite
def rules(draw, offsets):
    chosen = draw(st.lists(st.sampled_from(offsets), unique=True, max_size=2))
    matches = tuple(MatchField(offset, *draw(byte_ranges())) for offset in chosen)
    return Rule(
        matches=matches,  # () is the all-wildcard rule
        action=draw(st.sampled_from(RULE_ACTIONS)),
        priority=draw(st.integers(0, 3)),  # many equal priorities
    )


@st.composite
def scenarios(draw):
    width = draw(st.integers(1, 3))
    offsets = tuple(
        sorted(draw(st.lists(st.integers(0, 20), min_size=width, max_size=width, unique=True)))
    )
    # A small pool, drawn with replacement, so rule sets repeat rules
    # (duplicate entries) and successive sets share entries.
    pool = draw(st.lists(rules(offsets), min_size=1, max_size=5))
    steps = []
    for __ in range(draw(st.integers(1, 6))):
        chosen = draw(st.lists(st.sampled_from(pool), max_size=6))
        default = draw(st.sampled_from(("allow", "allow", "drop")))
        method = draw(st.sampled_from(("deploy", "update", "update")))
        steps.append((method, chosen, default))
    capacity = draw(st.sampled_from((8, 24, 64, 4096)))
    return offsets, steps, capacity


# -- comparison ----------------------------------------------------------------


def table_state(table: TernaryTable, relative: bool):
    """Everything a sequence of installs leaves in a table."""
    id_base = table._next_id if relative else 0
    order_base = table._order if relative else 0
    return {
        "entries": [
            (
                r.entry_id - id_base, r.row, r.value, r.mask,
                r.priority, r.action, r.order - order_base,
            )
            for r in table.entries()
        ],
        "free_rows": list(table._free_rows),
        "next_row": table._next_row,
        "rows": {entry_id - id_base: row for entry_id, row in table._rows.items()},
        "default": table.default_action,
        "len": len(table),
    }


def packets_for(offsets, rng, n=64) -> List[Packet]:
    """Packets whose key bytes hit the endpoint values often."""
    length = max(offsets) + 1
    values = np.array(ENDPOINTS + (2, 50, 129, 201), dtype=np.uint8)
    data = rng.choice(values, size=(n, length))
    return [Packet(bytes(row)) for row in data]


def assert_same(batch: GatewayController, scalar: ScalarController, relative: bool, packets):
    table = batch.switch.table(FIREWALL_TABLE)
    twin = scalar.switch.table(FIREWALL_TABLE)
    assert table_state(table, relative) == table_state(twin, relative)
    shift = (table._next_id, twin._next_id) if relative else (0, 0)
    assert [i - shift[0] for i in batch._entry_ids.tolist()] == [
        i - shift[1] for i in scalar._entry_ids
    ]
    assert batch.deployed is scalar.deployed
    # One compiled batch through each switch: verdicts and counters.
    got = batch.switch.process_batch(packets)
    want = scalar.switch.process_batch(packets)
    assert got.codes.tolist() == want.codes.tolist()
    hit = got.entries >= 0
    assert np.array_equal(hit, want.entries >= 0)
    assert (got.entries[hit] - shift[0]).tolist() == (want.entries[hit] - shift[1]).tolist()
    assert table._packets.tolist() == twin._packets.tolist()
    assert batch.hit_counts() == twin.hit_counts(scalar._entry_ids)


@settings(max_examples=150, deadline=None)
@given(scenario=scenarios(), seed=st.integers(0, 2**16))
def test_installs_match_scalar_reference(scenario, seed):
    offsets, steps, capacity = scenario
    rng = np.random.default_rng(seed)
    batch = GatewayController.for_ruleset(RuleSet(offsets), table_capacity=capacity)
    scalar = ScalarController(offsets, capacity)
    packets = packets_for(offsets, rng)
    relative = False
    for method, chosen, default in steps:
        ruleset = RuleSet(offsets, chosen, default_action=default)
        assert ruleset.to_ternary() == old_to_ternary(ruleset)
        before = batch.deployed
        outcomes = []
        for controller in (batch, scalar):
            try:
                outcomes.append(getattr(controller, method)(ruleset))
            except TableFullError:
                outcomes.append(TableFullError)
        assert outcomes[0] == outcomes[1]
        if outcomes[0] is TableFullError:
            relative = True
            assert len(old_to_ternary(ruleset)) > capacity
            assert batch.deployed is before  # previous deployment restored
        assert_same(batch, scalar, relative, packets)


# -- the table's batch calls on their own -----------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    width=st.integers(1, 3),
    capacity=st.integers(1, 12),
)
def test_add_many_remove_many_match_scalar_loops(data, width, capacity):
    """Interleaved batches leave the table as loops of add/remove do."""
    batch = TernaryTable("t", width, max_entries=capacity)
    scalar = TernaryTable("t", width, max_entries=capacity)
    entry = st.tuples(
        st.lists(st.integers(0, 255), min_size=width, max_size=width),
        st.lists(st.sampled_from((0, 15, 240, 255)), min_size=width, max_size=width),
        st.sampled_from(RULE_ACTIONS),
        st.integers(-2, 2),
    )
    for __ in range(data.draw(st.integers(1, 6))):
        live = [r.entry_id for r in scalar.entries()]
        if live and data.draw(st.booleans()):
            doomed = data.draw(st.lists(st.sampled_from(live), unique=True, min_size=1))
            batch.remove_many(doomed)
            for entry_id in doomed:
                scalar.remove(entry_id)
        else:
            new = data.draw(st.lists(entry, max_size=8))
            values, masks, actions, priorities = map(list, zip(*new)) if new else ([],) * 4
            if len(scalar) + len(new) > capacity:
                # The batch leaves the table untouched; the loop is not run.
                with pytest.raises(TableFullError):
                    batch.add_many(values, masks, actions, priorities)
            else:
                ids = batch.add_many(
                    np.array(values, dtype=np.uint8).reshape(-1, width),
                    np.array(masks, dtype=np.uint8).reshape(-1, width),
                    actions,
                    priorities,
                )
                want = [scalar.add(v, m, a, priority=p) for v, m, a, p in new]
                assert ids.tolist() == want
        assert table_state(batch, False) == table_state(scalar, False)
        assert batch._next_id == scalar._next_id and batch._order == scalar._order


class TestBatchChecks:
    def test_bad_keys_raise_scalar_messages_before_any_change(self):
        table = TernaryTable("t", 2, max_entries=4)
        table.add((1, 2), (255, 255), "drop")
        state = table_state(table, False)
        with pytest.raises(ValueError, match=r"key width 3 != 2"):
            table.add_many([[1, 2, 3]], [[0, 0, 0]], ["drop"], [0])
        with pytest.raises(ValueError, match=r"key bytes must be in \[0, 255\]"):
            table.add_many([[1, 2]], [[0, 256]], ["drop"], [0])
        with pytest.raises(ValueError, match=r"key bytes must be in \[0, 255\]"):
            table.add_many([[-1, 2]], [[0, 0]], ["drop"], [0])
        for scalar_call in (
            lambda: table.add((1, 2, 3), (0, 0, 0), "drop"),
            lambda: table.add((1, 2), (0, 256), "drop"),
        ):
            with pytest.raises(ValueError):
                scalar_call()
        assert table_state(table, False) == state

    def test_full_table_is_untouched(self):
        table = TernaryTable("t", 1, max_entries=3)
        table.add((1,), (255,), "drop")
        generation = table.generation
        state = table_state(table, False)
        with pytest.raises(TableFullError, match="is full"):
            table.add_many([[2], [3], [4]], [[255]] * 3, ["drop"] * 3, [0] * 3)
        assert table_state(table, False) == state
        assert table._next_id == 1 and table.generation == generation

    def test_one_generation_bump_per_call(self):
        table = TernaryTable("t", 1, max_entries=8)
        generation = table.generation
        ids = table.add_many([[1], [2], [3]], [[255]] * 3, ["drop"] * 3, [0, 1, 0])
        assert table.generation == generation + 1
        table.remove_many(ids[:2])
        assert table.generation == generation + 2
        table.add_many(np.empty((0, 1), np.uint8), np.empty((0, 1), np.uint8), [], [])
        table.remove_many([])
        assert table.generation == generation + 2  # nothing changed

    def test_remove_many_unknown_or_repeated_id_raises_before_any_change(self):
        table = TernaryTable("t", 1, max_entries=8)
        ids = table.add_many([[1], [2]], [[255]] * 2, ["drop"] * 2, [0, 0]).tolist()
        state = table_state(table, False)
        with pytest.raises(KeyError):
            table.remove_many([ids[0], 99])
        with pytest.raises(KeyError):
            table.remove_many([ids[0], ids[0]])
        assert table_state(table, False) == state


# -- expansion-derived views ---------------------------------------------------


@st.composite
def rule_sets(draw):
    offsets = tuple(range(draw(st.integers(1, 4))))
    return RuleSet(offsets, draw(st.lists(rules(offsets), max_size=8)))


@settings(max_examples=100, deadline=None)
@given(ruleset=rule_sets())
def test_expansion_counts(ruleset):
    """``to_ternary`` is the old expansion; the report counts, not expands."""
    expansion = old_to_ternary(ruleset)
    assert ruleset.to_ternary() == expansion
    arrays = ruleset.expand()
    assert len(arrays) == len(expansion)
    assert arrays.counts.tolist() == [r.ternary_entry_count() for r in ruleset.rules]
    report = ruleset.resource_report()
    assert report["ternary_entries"] == len(expansion)
    assert report["tcam_bits"] == 2 * 8 * len(ruleset.offsets) * len(expansion)


@settings(max_examples=60, deadline=None)
@given(ruleset=rule_sets(), seed=st.integers(0, 2**16))
def test_rule_views_match_per_rule_walk(ruleset, seed):
    """``rule_for_entry`` / ``rule_hit_counts`` against a walk over the rules."""
    controller = GatewayController.for_ruleset(ruleset)
    controller.deploy(ruleset)
    controller.switch.process_batch(packets_for(ruleset.offsets, np.random.default_rng(seed)))
    entry_ids = controller._entry_ids.tolist()
    hits = controller.hit_counts()
    want_hits = []
    cursor = 0
    for rule in ruleset.rules:
        width = rule.ternary_entry_count()
        for entry_id in entry_ids[cursor : cursor + width]:
            assert controller.rule_for_entry(entry_id) is rule
        want_hits.append(sum(hits[cursor : cursor + width]))
        cursor += width
    assert controller.rule_hit_counts() == want_hits
    with pytest.raises(KeyError):
        controller.rule_for_entry(max(entry_ids, default=0) + 1)


def test_single_entry_rules_map_back():
    """Exact and all-wildcard rules each expand to one entry."""
    rules_ = [
        Rule((MatchField(0, 7, 7),), "drop", priority=3),
        Rule((), "quarantine", priority=2),
        Rule((MatchField(1, 0, 255), MatchField(0, 9, 9)), "drop", priority=1),
        Rule((MatchField(0, 1, 6),), "allow", priority=0),  # 4 entries
    ]
    ruleset = RuleSet((0, 1), rules_)
    controller = GatewayController.for_ruleset(ruleset)
    controller.deploy(ruleset)
    assert [r.ternary_entry_count() for r in ruleset.rules] == [1, 1, 1, 4]
    for position, entry_id in enumerate(controller._entry_ids.tolist()):
        assert controller.rule_for_entry(entry_id) is ruleset.rules[min(position, 3)]
    controller.switch.process_batch([Packet(bytes(key)) for key in ([7, 0], [9, 1], [3, 3])])
    assert controller.rule_hit_counts() == [1, 2, 0, 0]


# -- one expansion per shard-set install ------------------------------------------


@settings(max_examples=60, deadline=None)
@given(scenario=scenarios(), seed=st.integers(0, 2**16))
def test_shard_set_install_matches_per_shard_update(scenario, seed):
    """A 3-shard install shares one expansion and one diff; every shard's
    entries, ids, rows and counters equal a per-shard ``update``."""
    from repro.serve.shard import ShardSet, swap_controller

    offsets, steps, __ = scenario
    first = RuleSet(offsets, steps[0][1], default_action=steps[0][2])
    shards = ShardSet(first, n_shards=3)
    own = [swap_controller(None, first, 4096) for __ in range(3)]
    packets = packets_for(offsets, np.random.default_rng(seed))
    for __m, chosen, default in steps[1:] + steps[:1]:
        ruleset = RuleSet(offsets, chosen, default_action=default)
        shards.install(ruleset)
        own = [swap_controller(controller, ruleset, 4096) for controller in own]
        for shard, controller in zip(shards, own):
            table = shard.switch.table(FIREWALL_TABLE)
            twin = controller.switch.table(FIREWALL_TABLE)
            assert table_state(table, False) == table_state(twin, False)
            assert shard.controller._entry_ids.tolist() == controller._entry_ids.tolist()
            got = shard.switch.process_batch(packets)
            want = controller.switch.process_batch(packets)
            assert got.entries.tolist() == want.entries.tolist()
            assert table._packets.tolist() == twin._packets.tolist()
    # Shards that installed the same expansion share its key array.
    assert len({id(shard.controller._keys) for shard in shards}) == 1


def test_shard_set_install_with_new_offsets_deploys_one_expansion():
    from repro.serve.shard import ShardSet

    shards = ShardSet(RuleSet((0, 1), [Rule((MatchField(0, 1, 6),), "drop")]), n_shards=3)
    moved = RuleSet((2, 5), [Rule((MatchField(5, 9, 9),), "quarantine")])
    shards.install(moved)
    keys = {id(shard.controller._keys) for shard in shards}
    assert len(keys) == 1
    for shard in shards:
        assert shard.switch.config.key_offsets == (2, 5)
        verdict = shard.switch.process_batch([Packet(bytes([0] * 5 + [9]))])[0]
        assert verdict.action == "quarantine"


def test_installs_never_compile_until_a_batch_is_classified():
    """Set-up, ``update`` and ``ShardSet.install`` leave compiling to the
    first batch after them (so ``setup_s`` and ``swap_ms`` never time it)."""
    from repro.serve import ServeConfig, StreamingGateway

    offsets = (0, 1, 2)
    first = RuleSet(offsets, [Rule((MatchField(0, 1, 6),), "drop", priority=1)])
    second = RuleSet(offsets, [Rule((MatchField(1, 9, 9),), "quarantine", priority=2)])
    gateway = StreamingGateway(first, ServeConfig(n_shards=2))
    switches = [shard.switch for shard in gateway.shards]
    assert [s.compiled_generation for s in switches] == [0, 0]
    packets = [Packet(bytes([3, 9, 0])), Packet(bytes([0, 9, 0]))]
    for switch in switches:
        switch.process_batch(packets)
    assert [s.compiled_generation for s in switches] == [1, 1]

    gateway.shards[0].controller.update(second)
    assert switches[0].compiled_generation == 1
    assert [v.action for v in switches[0].process_batch(packets)] == ["quarantine"] * 2
    assert switches[0].compiled_generation == 2

    gateway.shards.install(second)  # no churn on shard 0: nothing to rebuild
    assert [s.compiled_generation for s in switches] == [2, 1]
    for switch in switches:
        switch.process_batch(packets)
    assert [s.compiled_generation for s in switches] == [2, 2]

    gateway.shards.install(first)
    assert [s.compiled_generation for s in switches] == [2, 2]
    for switch in switches:
        assert [v.action for v in switch.process_batch(packets)] == ["drop", "allow"]
    assert [s.compiled_generation for s in switches] == [3, 3]
