"""Differential harness: the compiled LUT-bitmap classifier vs the scalar oracle.

The compiled per-byte LUT-bitmap classifier
(:mod:`repro.dataplane.compiled`) is the switch's only batch path;
the scalar ``lookup`` / ``Switch.process`` is its oracle.  Every
randomized rule set and trace is replayed through identically
configured instances, and every observable must agree bit for bit:
per-packet verdicts (action, table, entry id), aggregate switch stats,
per-entry/default table counters, and
:class:`~repro.obs.events.DecisionRecord` provenance.

The LUT build itself has a second oracle: the original construction,
which materialises the ``(E, width, 256)`` allowed-byte matrix and
packs it, is kept here and the O(E) bit-decomposition build must equal
it byte for byte.

Deterministic and hypothesis corners cover empty tables, entry counts
on both sides of the 64-bit word seams (63/64/65, 127/128/129),
equal-priority ties, interleaved add/remove sequences (match order must
equal a full sort by ``(-priority, insertion order)``), per-table lazy
rebuilds, and mid-stream atomic rule swaps in a 3-shard gateway soak.

The perf-marked test at the bottom holds the compiled batch path well
clear of the scalar path at batch 1024 on a 1000-entry firewall fill.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.dataplane import Switch, SwitchConfig
from repro.dataplane.compiled import CompiledClassifier, compile_table
from repro.dataplane.switch import Verdict
from repro.dataplane.tables import (
    EntryExistsError,
    ExactTable,
    LpmTable,
    RangeTable,
    TernaryTable,
)
from repro.net.packet import Packet
from repro.obs.events import event_to_dict
from tests.test_batch_differential import (
    TABLE_KINDS,
    assert_switches_equal,
    assert_tables_equal,
    build_switch,
    build_table,
    packet_traces,
    scalar_lookup_series,
    switch_specs,
    table_specs,
)

# -- the original LUT build, kept as the oracle for the O(E) compiler ----------

_BYTES = np.arange(256, dtype=np.uint8)


def _pack_words(allowed: np.ndarray, words: int) -> np.ndarray:
    """Pack an ``(256, E)`` allowed matrix into ``(256, W)`` uint64 words."""
    packed = np.packbits(allowed, axis=1, bitorder="little")
    padded = np.zeros((256, words * 8), dtype=np.uint8)
    padded[:, : packed.shape[1]] = packed
    return padded.view("<u8").reshape(256, words)


def _allowed_value_mask(values: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """``(E, width, 256)`` allowed bytes for value/mask entries."""
    return (_BYTES[None, None, :] & masks[:, :, None]) == (
        (values & masks)[:, :, None]
    )


def _entry_rows(table, entry_ids):
    """``(values, masks)`` or ``(lows, highs)`` per entry id, in that order."""
    width = table.key_width
    if isinstance(table, TernaryTable):
        by_id = {r.entry_id: r for r in table.entries()}
        return "mask", [by_id[e].value for e in entry_ids], [
            by_id[e].mask for e in entry_ids
        ]
    if isinstance(table, RangeTable):
        by_id = {r.entry_id: r for r in table.entries()}
        return "range", [[lo for lo, __ in by_id[e].ranges] for e in entry_ids], [
            [hi for __, hi in by_id[e].ranges] for e in entry_ids
        ]
    if isinstance(table, ExactTable):
        by_id = {eid: key for key, (eid, __) in table._entries.items()}
        return "mask", [by_id[e] for e in entry_ids], [(255,) * width] * len(entry_ids)
    total_bits = 8 * width
    by_id = {}
    for prefix_len, bucket in table._by_length.items():
        for value, (eid, __) in bucket.items():
            full = (value << (total_bits - prefix_len)) if prefix_len else 0
            by_id[eid] = (tuple(full.to_bytes(width, "big")),
                          tuple(table._prefix_mask(prefix_len)))
    return "mask", [by_id[e][0] for e in entry_ids], [by_id[e][1] for e in entry_ids]


def oracle_luts(table, entry_ids) -> np.ndarray:
    """LUTs packed from the full allowed matrix, entries in ``entry_ids`` order."""
    width = table.key_width
    kind, first, second = _entry_rows(table, entry_ids)
    first = np.array(first, dtype=np.int64).reshape(-1, width)
    second = np.array(second, dtype=np.int64).reshape(-1, width)
    if kind == "mask":
        allowed = _allowed_value_mask(first.astype(np.uint8), second.astype(np.uint8))
    else:
        wide = _BYTES.astype(np.int64)[None, None, :]
        allowed = (wide >= first[:, :, None]) & (wide <= second[:, :, None])
    count = len(entry_ids)
    words = max(1, -(-count // 64))
    luts = np.zeros((width, 256, words), dtype=np.uint64)
    if count:
        for j in range(width):
            luts[j] = _pack_words(allowed[:, j, :].T, words)
    return luts


def assert_luts_match_oracle(table):
    program = compile_table(table)
    order = [int(e) for e in program.entry_ids[: program.entries]]
    assert sorted(order) == sorted(table.counters)
    expected = oracle_luts(table, order)
    assert program.luts.shape == expected.shape
    assert program.luts.tobytes() == expected.tobytes()
    return program


def build_compiled_switch(offsets, table_spec_list) -> Switch:
    """An identically configured instance, compiled up front."""
    switch = build_switch(offsets, table_spec_list)
    switch.compile()
    return switch


class TestSingleTableCompiledDifferential:
    """Compiled lookup vs the scalar lookup and the LUT-build oracle."""

    @pytest.mark.parametrize("kind", TABLE_KINDS)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_compiled_matches_both_oracles(self, kind, data):
        width = data.draw(st.integers(1, 4), label="key_width")
        spec = data.draw(table_specs(width, kind=kind), label="table")
        count = data.draw(st.integers(0, 30), label="n_keys")
        keys = np.array(
            data.draw(
                st.lists(
                    st.lists(st.integers(0, 255), min_size=width, max_size=width),
                    min_size=count,
                    max_size=count,
                ),
                label="keys",
            ),
            dtype=np.uint8,
        ).reshape(count, width)
        sizes = np.arange(count, dtype=np.int64) * 3 + 1

        table_scalar = build_table(spec, width, "t")
        table_compiled = build_table(spec, width, "t")
        assert_luts_match_oracle(table_compiled)

        reference = scalar_lookup_series(table_scalar, keys, sizes)
        compiled = CompiledClassifier().lookup_batch(
            table_compiled, keys, packet_sizes=sizes
        )
        for row, result in enumerate(reference):
            expected_id = result.entry_id if result.entry_id is not None else -1
            assert bool(compiled.hit[row]) == result.hit
            assert int(compiled.entry_id[row]) == expected_id
            assert compiled.actions[compiled.action_code[row]] == result.action
            assert int(compiled.priority[row]) == result.priority
        assert_tables_equal(table_scalar, table_compiled)


def _fill(kind: str, count: int, width: int, rng, *, priorities=(0,), name="t"):
    """A ``kind`` table of ``count`` entries (exact/LPM keys kept unique)."""
    if kind == "exact":
        table = ExactTable(name, width, max_entries=count + 1)
        keys = set()
        while len(keys) < count:
            keys.add(tuple(int(v) for v in rng.integers(0, 16, size=width)))
        for i, key in enumerate(sorted(keys)):
            table.add(key, f"a{i}")
    elif kind == "ternary":
        table = TernaryTable(name, width, max_entries=count + 1)
        for i in range(count):
            table.add(
                tuple(int(v) for v in rng.integers(0, 4, size=width)),
                tuple(int(v) for v in rng.choice([0x00, 0x01, 0x03, 0xFF], size=width)),
                f"a{i}",
                priority=int(rng.choice(priorities)),
            )
    elif kind == "range":
        table = RangeTable(name, width, max_entries=count + 1)
        for i in range(count):
            lows = rng.integers(0, 4, size=width)
            highs = lows + rng.integers(0, 3, size=width)
            table.add(
                [(int(lo), int(hi)) for lo, hi in zip(lows, highs)],
                f"a{i}",
                priority=int(rng.choice(priorities)),
            )
    else:
        table = LpmTable(name, width, max_entries=count + 1)
        added = 0
        while added < count:
            try:
                table.add(
                    tuple(int(v) for v in rng.integers(0, 256, size=width)),
                    int(rng.integers(0, 8 * width + 1)),
                    f"a{added}",
                )
            except EntryExistsError:
                continue
            added += 1
    return table


class TestWordSeams:
    """Entry counts on both sides of the 64- and 128-entry word seams."""

    @pytest.mark.parametrize("kind", TABLE_KINDS)
    @pytest.mark.parametrize("count", [63, 64, 65, 127, 128, 129])
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**16), ties=st.booleans())
    def test_seam_counts_match_scalar(self, kind, count, seed, ties):
        width = 2
        priorities = (1,) if ties else (0, 1, 2)
        registry = obs.Registry(enabled=True)
        with obs.use_registry(registry):
            tables = [
                _fill(kind, count, width, np.random.default_rng(seed),
                      priorities=priorities, name=name)
                for name in ("scalar", "compiled")
            ]
            assert len(tables[1]) == count
            program = assert_luts_match_oracle(tables[1])
            assert program.words == -(-count // 64)
            rng = np.random.default_rng(seed + 1)
            keys = rng.integers(0, 16, size=(64, width)).astype(np.uint8)
            sizes = np.arange(64, dtype=np.int64) + 1
            reference = scalar_lookup_series(tables[0], keys, sizes)
            batch = CompiledClassifier().lookup_batch(
                tables[1], keys, packet_sizes=sizes
            )
        for row, result in enumerate(reference):
            expected_id = result.entry_id if result.entry_id is not None else -1
            assert int(batch.entry_id[row]) == expected_id
            assert batch.actions[batch.action_code[row]] == result.action
        assert_tables_equal(tables[0], tables[1])
        shadows = {
            dict(i.labels)["table"]: i.value
            for i in registry.instruments()
            if i.name == "table_shadow_hits_total"
        }
        assert shadows["compiled"] == shadows["scalar"]


#: One step of an interleaved install sequence: add an entry at a
#: priority, or remove the k-th live entry (modulo the live count).
churn_steps = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 3)),
        st.tuples(st.just("remove"), st.integers(0, 200)),
    ),
    min_size=1,
    max_size=80,
)


class TestInterleavedChurn:
    """Add/remove sequences keep match order == a full sort."""

    @pytest.mark.parametrize("kind", ["ternary", "range"])
    @settings(max_examples=60, deadline=None)
    @given(steps=churn_steps, seed=st.integers(0, 2**16))
    def test_match_order_equals_full_sort(self, kind, steps, seed):
        rng = np.random.default_rng(seed)
        table = (TernaryTable if kind == "ternary" else RangeTable)("t", 1, max_entries=256)
        program = CompiledClassifier()
        live = []  # (priority, add sequence number, entry id)
        keys = np.arange(0, 8, dtype=np.uint8).reshape(-1, 1)
        for sequence, (op, arg) in enumerate(steps):
            if op == "add":
                low = int(rng.integers(0, 8))
                if kind == "ternary":
                    entry_id = table.add((low,), (int(rng.choice([0, 7, 255])),),
                                         f"a{sequence}", priority=arg)
                else:
                    entry_id = table.add([(low, min(7, low + 2))], f"a{sequence}",
                                         priority=arg)
                live.append((arg, sequence, entry_id))
            elif live:
                victim = live.pop(arg % len(live))
                table.remove(victim[2])
            expected = [eid for __, __s, eid in sorted(live, key=lambda r: (-r[0], r[1]))]
            assert [r.entry_id for r in table.entries()] == expected
            batch = program.lookup_batch(table, keys)
            compiled_order = program.program_for(table).entry_ids[: len(live)]
            assert compiled_order.tolist() == expected
            for row, key in enumerate(keys):
                result = table.lookup((int(key[0]),))
                assert int(batch.entry_id[row]) == (
                    result.entry_id if result.hit else -1
                )
        assert_luts_match_oracle(table)


class TestPipelineCompiledDifferential:
    """Whole-switch differential on randomized pipelines."""

    @settings(max_examples=100, deadline=None)
    @given(spec=switch_specs(), packets=packet_traces)
    def test_compiled_process_batch_matches_both_paths(self, spec, packets):
        """Lazily and eagerly compiled switches both equal the scalar path."""
        offsets, table_spec_list = spec
        switch_scalar = build_switch(offsets, table_spec_list)
        switch_lazy = build_switch(offsets, table_spec_list)
        switch_eager = build_compiled_switch(offsets, table_spec_list)

        reference = [switch_scalar.process(packet) for packet in packets]
        lazy = switch_lazy.process_batch(packets)
        eager = switch_eager.process_batch(packets)

        assert list(lazy) == reference
        assert list(eager) == reference
        assert_switches_equal(switch_scalar, switch_lazy)
        assert_switches_equal(switch_scalar, switch_eager)

    @settings(max_examples=50, deadline=None)
    @given(
        spec=switch_specs(),
        packets=packet_traces,
        batch_size=st.integers(1, 17),
    )
    def test_compiled_trace_chunking_matches_scalar(
        self, spec, packets, batch_size
    ):
        offsets, table_spec_list = spec
        switch_scalar = build_switch(offsets, table_spec_list)
        switch_compiled = build_compiled_switch(offsets, table_spec_list)

        reference = switch_scalar.process_trace(packets)
        chunked = switch_compiled.process_trace(packets, batch_size=batch_size)

        assert chunked == reference
        assert_switches_equal(switch_scalar, switch_compiled)


def _firewall_switch(entries: int = 20, *, compile: bool = False) -> Switch:
    """Small deterministic ternary firewall with overlapping priorities."""
    rng = np.random.default_rng(7)
    switch = Switch(SwitchConfig(key_offsets=(0, 1, 2)))
    table = TernaryTable("fw", 3, max_entries=max(64, entries))
    for i in range(entries):
        value = tuple(int(v) for v in rng.integers(0, 8, size=3))
        mask = tuple(int(v) for v in rng.choice([0, 0xF0, 0xFF], size=3))
        table.add(value, mask, "drop" if i % 2 else "quarantine",
                  priority=i % 4)
    switch.add_table(table)
    if compile:
        switch.compile()
    return switch


def _mixed_packets(n: int, seed: int = 3):
    rng = np.random.default_rng(seed)
    return [
        Packet(
            bytes(rng.integers(0, 8, size=12, dtype=np.uint8)),
            timestamp=float(i) * 1e-4,
        )
        for i in range(n)
    ]


class TestDecisionRecordParity:
    """Flight-recorder provenance must be path-independent."""

    def test_records_identical_to_scalar_oracle(self):
        packets = _mixed_packets(256)
        scalar = _firewall_switch()
        compiled = _firewall_switch(compile=True)
        rec_scalar = obs.FlightRecorder(4096, sample_rate=1.0, seed=0)
        rec_compiled = obs.FlightRecorder(4096, sample_rate=1.0, seed=0)
        scalar.attach_recorder(rec_scalar)
        compiled.attach_recorder(rec_compiled)

        reference = [scalar.process(p) for p in packets]
        got = compiled.process_trace(packets, batch_size=64)

        assert got == reference
        records_scalar = [event_to_dict(r) for r in rec_scalar.records()]
        records_compiled = [event_to_dict(r) for r in rec_compiled.records()]
        assert records_compiled == records_scalar
        # The records carry real winning-entry provenance, not misses.
        assert any(r["entry_id"] is not None for r in records_compiled)


class TestDeterministicEdges:
    """Corners the strategies only sample."""

    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_empty_table_default_only(self, kind):
        spec = {"kind": kind, "default": "drop", "entries": []}
        table_scalar = build_table(spec, 2, "t")
        table_compiled = build_table(spec, 2, "t")
        assert_luts_match_oracle(table_compiled)
        keys = np.array([[0, 0], [255, 255]], dtype=np.uint8)
        reference = scalar_lookup_series(
            table_scalar, keys, np.array([5, 9], dtype=np.int64)
        )
        batch = CompiledClassifier().lookup_batch(
            table_compiled, keys, packet_sizes=np.array([5, 9])
        )
        assert not batch.hit.any()
        assert [batch.actions[c] for c in batch.action_code] == ["drop", "drop"]
        assert [r.action for r in reference] == ["drop", "drop"]
        assert_tables_equal(table_scalar, table_compiled)

    def test_empty_pipeline(self):
        switch = Switch(SwitchConfig(key_offsets=(0, 1)))
        switch.compile()
        verdicts = switch.process_batch([Packet(b"ab"), Packet(b"")])
        assert all(v == Verdict("allow") for v in verdicts)

    def test_word_boundary_crossing(self):
        """Entries 63/64/65 — winners on both sides of the uint64 seam."""
        def build():
            switch = Switch(SwitchConfig(key_offsets=(0,)))
            table = ExactTable("t", 1, max_entries=256)
            for b in range(130):
                table.add((b,), "drop" if b % 2 else "quarantine")
            switch.add_table(table)
            return switch

        packets = [Packet(bytes([b])) for b in (0, 63, 64, 65, 127, 128, 129, 200)]
        scalar, compiled = build(), build()
        reference = [scalar.process(p) for p in packets]
        assert list(compiled.process_batch(packets)) == reference
        assert_switches_equal(scalar, compiled)

    def test_overlapping_ternary_priorities(self):
        """Higher priority beats earlier insertion; compiled agrees."""
        def build():
            switch = Switch(SwitchConfig(key_offsets=(0, 1)))
            table = TernaryTable("fw", 2)
            table.add((1, 0), (255, 0), "quarantine", priority=1)
            table.add((1, 2), (255, 255), "drop", priority=5)
            table.add((0, 2), (0, 255), "allow", priority=3)
            switch.add_table(table)
            return switch

        packets = [Packet(bytes(k)) for k in ((1, 2), (1, 7), (9, 2), (9, 9))]
        scalar, compiled = build(), build()
        reference = [scalar.process(p) for p in packets]
        got = compiled.process_batch(packets)
        assert list(got) == reference
        assert [v.action for v in got] == ["drop", "quarantine", "allow", "allow"]
        assert_switches_equal(scalar, compiled)

    def test_install_remove_invalidates_and_recompiles(self):
        switch = _firewall_switch(compile=True)
        packets = _mixed_packets(64)
        oracle = _firewall_switch()
        assert list(switch.process_batch(packets)) == [oracle.process(p) for p in packets]
        generation = switch.compiled_generation

        entry = switch.table("fw").add((2, 2, 2), (255, 255, 255), "drop",
                                       priority=9)
        oracle.table("fw").add((2, 2, 2), (255, 255, 255), "drop", priority=9)
        assert list(switch.process_batch(packets)) == [oracle.process(p) for p in packets]
        assert switch.compiled_generation == generation + 1

        switch.table("fw").remove(entry)
        oracle.table("fw").remove(entry)
        assert list(switch.process_batch(packets)) == [oracle.process(p) for p in packets]
        assert switch.compiled_generation == generation + 2

    def test_only_changed_tables_rebuild(self):
        """A mutation rebuilds its own table's program, not its neighbours'."""
        registry = obs.Registry(enabled=True)
        with obs.use_registry(registry):
            switch = _firewall_switch()
            other = ExactTable("acl", 3)
            other.add((9, 9, 9), "drop")
            switch.add_table(other)
            packets = _mixed_packets(32)
            switch.process_batch(packets)
            classifier = switch._compiled
            kept = classifier.program_for(other)
            switch.table("fw").add((3, 3, 3), (255, 255, 255), "drop", priority=9)
            switch.process_batch(packets)
            assert classifier.program_for(other) is kept
            switch.process_batch(packets)  # nothing stale: no rebuild
        recompiles = [
            i.value for i in registry.instruments()
            if i.name == "compiled_recompiles_total"
        ]
        assert recompiles == [1]
        assert switch.compiled_generation == 2

    def test_default_action_change_visible_without_recompile(self):
        """The controller mutates ``default_action`` in place."""
        switch = _firewall_switch(entries=1, compile=True)
        miss = [Packet(bytes((7, 7, 7)))]
        assert switch.process_batch(miss)[0].action == "allow"
        generation = switch.compiled_generation
        switch.table("fw").default_action = "quarantine"
        assert switch.process_batch(miss)[0].action == "quarantine"
        assert switch.compiled_generation == generation

    def test_uncompilable_table_kind_is_rejected(self):
        """There is no fallback path: an unknown table kind fails loudly."""

        class Stranger:
            name, key_width, generation = "stranger", 1, 0

        with pytest.raises(TypeError, match="cannot compile"):
            compile_table(Stranger())

    @pytest.mark.parametrize("entries", [1, 64, 65, 100, 1000, 5000])
    def test_lut_bytes_formula(self, entries):
        """LUT bytes == width × 256 × ceil(E / 64) × 8."""
        width = 6
        table = TernaryTable("t", width, max_entries=entries)
        rng = np.random.default_rng(entries)
        for i in range(entries):
            table.add(tuple(int(v) for v in rng.integers(0, 256, size=width)),
                      (255,) * width, "drop", priority=i % 7)
        report = CompiledClassifier().compile([table])
        expected = width * 256 * (-(-entries // 64)) * 8
        assert report.lut_bytes == expected
        assert compile_table(table).luts.nbytes == expected


def _soak(registry):
    """3-shard gateway soak with one mid-stream atomic rule swap.

    Returns the gateway, the soak result, and every served batch with
    the index of the rule set that classified it.
    """
    from repro.eval.harness import synthetic_firewall_ruleset
    from repro.serve import ServeConfig, StreamingGateway, retime

    rule_sets = (
        synthetic_firewall_ruleset(n_rules=24, seed=1),
        synthetic_firewall_ruleset(n_rules=40, seed=2),
    )
    rng = np.random.default_rng(11)
    base = [
        Packet(bytes(rng.integers(0, 256, size=70, dtype=np.uint8)))
        for __ in range(3000)
    ]
    stamped = list(retime(base, rate=200_000.0, seed=4))
    served = []

    def retrain_hook(packets, verdicts):
        live = 1 if len(served) >= 4 else 0
        served.append((packets, verdicts, live))
        return rule_sets[1] if len(served) == 4 else None

    with obs.use_registry(registry):
        gateway = StreamingGateway(
            rule_sets[0],
            ServeConfig(n_shards=3, max_batch=256, max_latency=0.005,
                        record_verdicts=True),
            retrain_hook=retrain_hook,
        )
        result = gateway.run(stamped)
    return gateway, result, rule_sets, served


class TestGatewaySwapSoak:
    """Mid-stream rule swaps in a 3-shard gateway: compiled == oracle."""

    def test_compiled_soak_identical_to_scalar_oracle(self):
        from repro.dataplane import GatewayController

        registry = obs.Registry(enabled=True)
        gateway, result, rule_sets, served = _soak(registry)
        assert result.rule_swaps == 1
        oracles = []
        for rules in rule_sets:
            controller = GatewayController.for_ruleset(rules)
            controller.deploy(rules)
            oracles.append(controller.switch)
        checked = 0
        for packets, verdicts, live in served:
            for packet, verdict in zip(packets, verdicts):
                expected = oracles[live].process(packet)
                if live == 0:
                    assert verdict == expected
                else:
                    # Incremental swaps keep the ids of reused entries,
                    # so only the decision is comparable here.
                    assert (verdict.action, verdict.table) == (
                        expected.action, expected.table
                    )
                checked += 1
        assert checked == result.processed == result.offered == 3000
        # Lazy lifecycle: one build on each shard's first batch, then
        # one rebuild per swap of the one changed table.
        for shard in gateway.shards:
            assert shard.switch.compiled_generation == 1 + result.rule_swaps
        recompiles = [
            i.value for i in registry.instruments()
            if i.name == "compiled_recompiles_total"
        ]
        assert sum(recompiles) == len(gateway.shards) * result.rule_swaps


#: Measured ~410x on a 2-core x86 host (1000 entries, batch 1024);
#: the floor keeps 4x headroom below that.
SPEEDUP_FLOOR = 100.0


@pytest.mark.perf
def test_compiled_speedup_at_batch_1024():
    """Acceptance guard: the batch path stays far ahead of the scalar oracle.

    1000 exact-mask ternary entries over the six learned offsets (the
    E10/E14 fill), the batch path replayed at the gateway batch size.
    The scalar path walks every entry of a missing key, so it is timed
    on a slice of the trace; both are best-of-three per packet.
    """
    offsets = (19, 34, 37, 48, 49, 63)

    def build() -> Switch:
        rng = np.random.default_rng(0)
        switch = Switch(SwitchConfig(key_offsets=offsets))
        table = TernaryTable("fw", len(offsets), max_entries=2048)
        for i in range(1000):
            value = tuple(int(v) for v in rng.integers(0, 256, size=len(offsets)))
            table.add(value, (255,) * len(offsets), "drop", priority=i)
        switch.add_table(table)
        return switch

    rng = np.random.default_rng(1)
    packets = [
        Packet(bytes(rng.integers(0, 256, size=80, dtype=np.uint8)))
        for __ in range(1024)
    ] * 10

    def per_packet(run, trace) -> float:
        run(trace[:64])  # warm
        best = float("inf")
        for __ in range(3):
            start = time.perf_counter()
            run(trace)
            best = min(best, time.perf_counter() - start)
        return best / len(trace)

    scalar = build()
    batch = build()
    scalar_s = per_packet(scalar.process_trace, packets[:200])
    batch_s = per_packet(
        lambda trace: batch.process_trace(trace, batch_size=1024), packets
    )
    speedup = scalar_s / batch_s
    assert speedup >= SPEEDUP_FLOOR, (
        f"batch path only {speedup:.0f}x the scalar path (< {SPEEDUP_FLOOR}x)"
    )
