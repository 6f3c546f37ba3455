"""Tests for the observability layer (repro.obs) and its wiring.

Covers the instrument semantics (counter monotonicity, histogram
``le``-inclusive bucket edges, span nesting), registry behaviour
(get-or-create identity, kind conflicts, disabled no-op mode, default
swapping for test isolation), exporter round-trips (JSONL, Prometheus
text), parity of the registry counters with ``SwitchStats`` (they are
read from it) on both data paths, and the perf guard that keeps disabled
instrumentation inside the ≤5 % overhead budget on ``process_trace``.
"""

import json
import re
import threading

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.dataplane.compiled import CompiledClassifier
from repro.dataplane.switch import Switch, SwitchConfig
from repro.dataplane.tables import ExactTable, TernaryTable
from repro.net.packet import Packet


@pytest.fixture()
def registry():
    """A fresh enabled registry installed as the process default."""
    fresh = obs.Registry(enabled=True)
    with obs.use_registry(fresh):
        yield fresh


# -- instruments ---------------------------------------------------------------


class TestInstruments:
    def test_counter_monotonic(self, registry):
        counter = registry.counter("c_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_up_and_down(self, registry):
        gauge = registry.gauge("g")
        gauge.set(2.5)
        gauge.inc()
        gauge.dec(0.5)
        assert gauge.value == pytest.approx(3.0)

    def test_default_buckets_shape(self):
        edges = obs.default_buckets()
        assert len(edges) == 28
        assert edges[0] == pytest.approx(1e-6)
        assert edges[-1] == pytest.approx(1e3)
        assert list(edges) == sorted(edges)

    def test_histogram_edges_are_le_inclusive(self, registry):
        hist = registry.histogram("h", buckets=[1.0, 10.0, 100.0])
        hist.observe(1.0)    # exactly on an edge -> that bucket
        hist.observe(1.5)
        hist.observe(10.0)
        hist.observe(1000.0)  # above the last edge -> overflow
        assert hist.counts == [1, 2, 0, 1]
        assert hist.count == 4
        assert hist.sum == pytest.approx(1012.5)
        assert hist.mean == pytest.approx(1012.5 / 4)

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            obs.Histogram("h", buckets=[2.0, 1.0])
        with pytest.raises(ValueError):
            obs.Histogram("h", buckets=[])

    def test_observe_many_bins_nan_like_observe(self):
        one, many = obs.Histogram("a", buckets=[1.0, 2.0]), obs.Histogram("b", buckets=[1.0, 2.0])
        one.observe(float("nan"))
        many.observe_many([float("nan")])
        assert many.counts == one.counts == [1, 0, 0]
        assert math.isnan(many.sum) and math.isnan(one.sum)

    def test_timer_records_elapsed(self, registry):
        hist = registry.histogram("t_seconds", buckets=[10.0])
        with hist.time():
            pass
        assert hist.count == 1
        assert 0.0 <= hist.sum < 10.0


_EDGES = (1e-6, 1e-3, 0.5, 1.0, 2.0, 10.0, 1e3)
#: Finite floats, +-inf, and every bucket edge exactly (``le`` boundaries).
_VALUES = st.one_of(
    st.floats(allow_nan=False, width=64),
    st.sampled_from(_EDGES + (float("inf"), float("-inf"), 0.0, -0.0)),
)


class TestObserveMany:
    """``observe_many(values)`` is ``observe`` on each value, in order."""

    @settings(max_examples=200, deadline=None)
    @given(
        chunks=st.lists(st.lists(_VALUES, max_size=40), max_size=6),
        start=st.floats(-1e3, 1e3),
    )
    def test_equals_per_value_observe(self, chunks, start):
        one = obs.Histogram("one", buckets=_EDGES)
        many = obs.Histogram("many", buckets=_EDGES)
        # A non-zero running sum first, so accumulation order matters.
        one.observe(start)
        many.observe(start)
        for chunk in chunks:     # split calls, empty chunks included
            for value in chunk:
                one.observe(value)
            many.observe_many(np.asarray(chunk, dtype=np.float64))
        assert many.counts == one.counts
        assert many.count == one.count
        if math.isnan(one.sum):  # inf + -inf
            assert math.isnan(many.sum)
        else:
            assert math.copysign(1.0, many.sum) == math.copysign(1.0, one.sum)
            assert many.sum == one.sum  # bit-identical, not approx

    def test_empty_array_is_a_no_op(self):
        hist = obs.Histogram("h", buckets=_EDGES)
        hist.observe_many(np.array([], dtype=np.float64))
        assert hist.count == 0 and hist.sum == 0.0 and not any(hist.counts)

    def test_disabled_registry_histogram_accepts_arrays(self):
        obs.Registry(enabled=False).histogram("h").observe_many(np.ones(3))


class TestSpans:
    def test_nesting_records_full_paths(self, registry):
        with registry.span("outer"):
            assert registry.current_span_path() == "outer"
            with registry.span("inner"):
                assert registry.current_span_path() == "outer/inner"
        assert registry.current_span_path() == ""
        paths = {
            instrument.label_dict().get("span")
            for instrument in registry.instruments()
            if instrument.name == "span_seconds"
        }
        assert paths == {"outer", "outer/inner"}

    def test_span_pops_on_exception(self, registry):
        with pytest.raises(RuntimeError):
            with registry.span("failing"):
                raise RuntimeError("boom")
        assert registry.current_span_path() == ""

    def test_span_stack_is_thread_local(self, registry):
        seen = {}

        def worker():
            seen["inside"] = registry.current_span_path()

        with registry.span("main-thread"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["inside"] == ""


# -- registry ------------------------------------------------------------------


class TestRegistry:
    def test_get_or_create_identity(self, registry):
        a = registry.counter("same_total", {"table": "t"})
        b = registry.counter("same_total", {"table": "t"})
        c = registry.counter("same_total", {"table": "other"})
        assert a is b
        assert a is not c

    def test_kind_conflict_raises(self, registry):
        registry.counter("conflict")
        with pytest.raises(ValueError):
            registry.gauge("conflict")

    def test_disabled_registry_hands_out_null_singletons(self):
        disabled = obs.Registry(enabled=False)
        from repro.obs.instruments import (
            NULL_COUNTER,
            NULL_GAUGE,
            NULL_HISTOGRAM,
            NULL_SPAN,
        )

        assert disabled.counter("x_total") is NULL_COUNTER
        assert disabled.gauge("x") is NULL_GAUGE
        assert disabled.histogram("x_seconds") is NULL_HISTOGRAM
        assert disabled.span("x") is NULL_SPAN
        # the whole no-op API is callable
        disabled.counter("x_total").inc()
        disabled.gauge("x").set(1)
        with disabled.span("x"):
            pass
        with disabled.timer("x_seconds"):
            pass
        assert disabled.snapshot() == {"metrics": []}

    def test_env_flag_default_off(self, monkeypatch):
        for value in (None, "", "0", "false", "off", "no"):
            if value is None:
                monkeypatch.delenv(obs.ENV_VAR, raising=False)
            else:
                monkeypatch.setenv(obs.ENV_VAR, value)
            assert not obs.env_enabled()
        monkeypatch.setenv(obs.ENV_VAR, "1")
        assert obs.env_enabled()

    def test_use_registry_isolates_and_restores(self):
        before = obs.registry()
        inner = obs.Registry(enabled=True)
        with obs.use_registry(inner):
            assert obs.registry() is inner
            inner.counter("isolated_total").inc()
        assert obs.registry() is before
        names = {i.name for i in inner.instruments()}
        assert names == {"isolated_total"}

    def test_reset_clears_instruments(self, registry):
        registry.counter("gone_total").inc()
        registry.reset()
        assert registry.instruments() == []
        # and the name is reusable with another kind after reset
        registry.gauge("gone_total").set(1)


# -- exporters -----------------------------------------------------------------


def _sample_registry():
    registry = obs.Registry(enabled=True)
    registry.counter("pkts_total", {"verdict": "drop"}, help="drops").inc(7)
    registry.gauge("occupancy", {"table": "fw"}).set(3)
    hist = registry.histogram("lat_seconds", buckets=[0.1, 1.0], unit="s")
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(5.0)
    return registry


class TestExporters:
    def test_jsonl_round_trip(self):
        snapshot = _sample_registry().snapshot()
        text = obs.to_jsonl(snapshot)
        for line in text.strip().splitlines():
            json.loads(line)  # every line is standalone JSON
        assert obs.from_jsonl(text) == snapshot

    def test_jsonl_file_round_trip(self, tmp_path):
        snapshot = _sample_registry().snapshot()
        path = obs.write_jsonl(snapshot, tmp_path / "snap.jsonl")
        assert obs.read_jsonl(path) == snapshot

    def test_prometheus_text_lints(self):
        text = obs.to_prometheus(_sample_registry().snapshot())
        lines = text.strip().splitlines()
        series = re.compile(
            r"^[a-zA-Z_][a-zA-Z0-9_]*"                 # metric name
            r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""    # first label
            r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
            r" [0-9eE+.\-]+$|^.*le=\"\+Inf\"\} [0-9]+$"
        )
        for line in lines:
            if line.startswith("#"):
                assert re.match(r"^# (HELP|TYPE) [a-zA-Z_][a-zA-Z0-9_]* ", line)
            else:
                assert series.match(line), line
        # every metric family announces HELP and TYPE
        for family in ("pkts_total", "occupancy", "lat_seconds"):
            assert f"# HELP {family} " in text
            assert f"# TYPE {family} " in text

    def test_prometheus_histogram_is_cumulative(self):
        text = obs.to_prometheus(_sample_registry().snapshot())
        buckets = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("lat_seconds_bucket")
        ]
        assert buckets == sorted(buckets)  # non-decreasing in le order
        assert buckets[-1] == 3  # +Inf bucket equals total count
        assert "lat_seconds_count 3" in text

    def test_prometheus_escapes_hostile_label_values(self):
        """0.0.4 escaping: backslash, quote, and newline in label values.

        Round-trips each hostile value through the exposition text: the
        emitted line must stay a single line with balanced quotes, and
        unescaping the captured value must recover the original.
        """
        hostile = [
            ('quote', 'say "hi"'),
            ('backslash', 'C:\\temp\\x'),
            ('newline', 'line1\nline2'),
            ('combo', 'a\\"b\nc\\'),
        ]
        registry = obs.Registry(enabled=True)
        for name, value in hostile:
            registry.counter("evil_total", {"v": value}).inc()
            registry.gauge(f"evil_{name}", {"v": value}).set(1)
        text = obs.to_prometheus(registry.snapshot())
        pattern = re.compile(r'\{v="((?:[^"\\]|\\.)*)"\} ')

        def unescape(escaped):
            out, i = [], 0
            while i < len(escaped):
                if escaped[i] == "\\" and i + 1 < len(escaped):
                    nxt = escaped[i + 1]
                    out.append({"n": "\n", '"': '"', "\\": "\\"}[nxt])
                    i += 2
                else:
                    assert escaped[i] not in ('"', "\\")  # must be escaped
                    out.append(escaped[i])
                    i += 1
            return "".join(out)

        recovered = []
        for line in text.splitlines():
            match = pattern.search(line)
            if match is not None:
                recovered.append(unescape(match.group(1)))
        originals = [value for _, value in hostile]
        # one series per counter registration + one per gauge
        assert sorted(recovered) == sorted(originals + originals)

    def test_render_table_lists_every_series(self):
        registry = _sample_registry()
        table = obs.render_table(registry.snapshot())
        assert "pkts_total" in table
        assert "verdict=drop" in table
        assert "count=3" in table
        assert obs.render_table({"metrics": []}) == "(no metrics recorded)"


# -- wiring: switch/table parity ----------------------------------------------


def _firewall_switch():
    switch = Switch(SwitchConfig(key_offsets=(0,)))
    table = ExactTable("fw", 1)
    table.add((1,), "drop")
    table.add((2,), "quarantine")
    switch.add_table(table)
    return switch


def _trace():
    return (
        [Packet(bytes([1]) * 10)] * 3
        + [Packet(bytes([2]) * 7)] * 5
        + [Packet(bytes([3]) * 4)] * 4
    )


def _metric(registry, name, **labels):
    frozen = tuple(sorted(labels.items()))
    for instrument in registry.instruments():
        if instrument.name == name and instrument.labels == frozen:
            return instrument.value
    raise AssertionError(f"metric {name}{labels} not found")


class TestSwitchWiring:
    @pytest.mark.parametrize("batch_size", [None, 4])
    def test_registry_counters_match_legacy_stats(self, batch_size):
        registry = obs.Registry(enabled=True)
        with obs.use_registry(registry):
            switch = _firewall_switch()
            switch.process_trace(_trace(), batch_size=batch_size)
        stats = switch.stats
        assert _metric(registry, "switch_packets_received_total") == stats.received
        assert _metric(registry, "switch_bytes_received_total") == stats.bytes_received
        assert _metric(registry, "switch_packets_total", verdict="drop") == stats.dropped
        assert (
            _metric(registry, "switch_packets_total", verdict="quarantine")
            == stats.quarantined
        )
        assert _metric(registry, "switch_packets_total", verdict="allow") == stats.allowed
        assert _metric(registry, "switch_bytes_total", verdict="drop") == stats.bytes_dropped
        assert (
            _metric(registry, "switch_bytes_total", verdict="quarantine")
            == stats.bytes_quarantined
        )
        assert _metric(registry, "table_lookups_total", table="fw") == stats.received
        assert _metric(registry, "table_hits_total", table="fw") == 8
        assert _metric(registry, "table_misses_total", table="fw") == 4

    def test_scalar_and_batch_registries_agree(self):
        """The obs counters themselves are path-independent.

        ``compiled_*`` counters count the batch classifier's own work
        (LUT lookups, rebuilds), which the scalar path never does.
        """
        snapshots = []
        for batch_size in (None, 5):
            registry = obs.Registry(enabled=True)
            with obs.use_registry(registry):
                _firewall_switch().process_trace(_trace(), batch_size=batch_size)
            snapshots.append(
                {
                    (i.name, i.labels): i.value
                    for i in registry.instruments()
                    if i.kind == "counter" and not i.name.startswith("compiled_")
                }
            )
        assert snapshots[0] == snapshots[1]

    def test_shadow_hits_counted_on_both_paths(self):
        """A ternary winner shadowing a lower-priority match is counted."""
        values = []
        for batch in (False, True):
            registry = obs.Registry(enabled=True)
            with obs.use_registry(registry):
                table = TernaryTable("t", 1)
                table.add((1,), (255,), "drop", priority=5)
                table.add((1,), (255,), "allow", priority=1)  # shadowed
                if batch:
                    CompiledClassifier().lookup_batch(
                        table, np.array([[1], [2]], dtype=np.uint8)
                    )
                else:
                    table.lookup((1,))
                    table.lookup((2,))
            values.append(_metric(registry, "table_shadow_hits_total", table="t"))
        assert values == [1, 1]

    def test_disabled_registry_records_nothing(self):
        registry = obs.Registry(enabled=False)
        with obs.use_registry(registry):
            switch = _firewall_switch()
            switch.process_trace(_trace(), batch_size=4)
        assert registry.snapshot() == {"metrics": []}
        assert switch.stats.received == 12  # legacy stats stay on

    def test_switch_built_outside_scope_reports_into_it(self):
        """Lazy registry resolution: construction order must not matter.

        A switch (and its tables) built *before* the observed registry
        is installed still reports into it — the generation check
        re-captures instruments at the first hot-path call inside the
        scope.
        """
        switch = _firewall_switch()  # built under the process default
        registry = obs.Registry(enabled=True)
        with obs.use_registry(registry):
            switch.process_trace(_trace(), batch_size=4)
        names = {m["name"] for m in registry.snapshot()["metrics"]}
        assert "switch_packets_total" in names
        assert "table_lookups_total" in names
        assert "table_capacity_entries" in names
        # and back outside the scope, nothing leaks into the old target
        registry2 = obs.Registry(enabled=True)
        with obs.use_registry(registry2):
            switch.process_trace(_trace(), batch_size=4)
        received = [
            m
            for m in registry.snapshot()["metrics"]
            if m["name"] == "switch_packets_received_total"
        ]
        assert received and received[0]["value"] == 12  # unchanged

    @pytest.mark.parametrize("batch_size", [None, 4])
    def test_reset_repoints_live_instruments(self, registry, batch_size):
        """After ``reset()`` live objects count into the registry afresh."""
        switch = _firewall_switch()
        switch.process_trace(_trace()[:3], batch_size=batch_size)
        registry.reset()
        switch.process_trace(_trace()[:5], batch_size=batch_size)
        assert switch.stats.received == 8
        assert _metric(registry, "switch_packets_received_total") == 5
        assert _metric(registry, "table_lookups_total", table="fw") == 5


class TestCacheWiring:
    def test_cache_miss_counted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.datasets import TraceConfig, cache

        registry = obs.Registry(enabled=True)
        with obs.use_registry(registry):
            result = cache.load(
                "x",
                TraceConfig(duration=1.0, n_devices=1),
                n_bytes=16,
                test_fraction=0.25,
                split="time",
            )
        assert result is None
        assert _metric(registry, "dataset_cache_events_total", event="miss") == 1


# -- perf guard ----------------------------------------------------------------


@pytest.mark.perf
def test_disabled_instrumentation_overhead_budget():
    """Disabled-mode obs cost stays ≤5 % of process_trace wall time.

    Measured structurally: time the actual no-op operations the data
    path performs per packet/batch when observability is off (boolean
    guard checks, the one-integer generation compare that lazy registry
    resolution adds per entry point, the recorder ``is None`` check,
    and one null span per trace) and compare their total against the
    measured runtime of the trace they would ride on.
    """
    import time as _time

    switch = Switch(SwitchConfig(key_offsets=(0, 1)))
    table = ExactTable("fw", 2)
    table.add((1, 1), "drop")
    switch.add_table(table)
    rng = np.random.default_rng(0)
    packets = [
        Packet(bytes(rng.integers(0, 256, 16, dtype=np.uint8)))
        for _ in range(4000)
    ]
    batch_size = 512

    def timed(fn):
        fn()  # warm caches
        start = _time.perf_counter()
        fn()
        return _time.perf_counter() - start

    scalar_seconds = timed(lambda: switch.process_trace(packets))
    batch_seconds = timed(
        lambda: switch.process_trace(packets, batch_size=batch_size)
    )

    # Per-operation cost of the disabled-mode building blocks: the
    # `if self._obs_on` guard check and the null span context manager.
    null = obs.Registry(enabled=False)
    span = null.span("x")
    obs_on = null.enabled
    reps = 100_000
    # Each loop body holds 8 copies of the measured op so the Python
    # for-loop overhead (which the real inline sites don't pay) is
    # amortised out of the per-op figure.
    start = _time.perf_counter()
    for _ in range(reps):
        if obs_on:  # pragma: no cover - never true here
            pass
        if obs_on:  # pragma: no cover
            pass
        if obs_on:  # pragma: no cover
            pass
        if obs_on:  # pragma: no cover
            pass
        if obs_on:  # pragma: no cover
            pass
        if obs_on:  # pragma: no cover
            pass
        if obs_on:  # pragma: no cover
            pass
        if obs_on:  # pragma: no cover
            pass
    per_check = (_time.perf_counter() - start) / (reps * 8)
    start = _time.perf_counter()
    for _ in range(reps):
        with span:
            pass
    per_span = (_time.perf_counter() - start) / reps
    # The lazy-registry sync: one int != compare per entry point.
    gen, cached = 7, 7
    start = _time.perf_counter()
    for _ in range(reps):
        if gen != cached:  # pragma: no cover - never true here
            pass
        if gen != cached:  # pragma: no cover
            pass
        if gen != cached:  # pragma: no cover
            pass
        if gen != cached:  # pragma: no cover
            pass
        if gen != cached:  # pragma: no cover
            pass
        if gen != cached:  # pragma: no cover
            pass
        if gen != cached:  # pragma: no cover
            pass
        if gen != cached:  # pragma: no cover
            pass
    per_cmp = (_time.perf_counter() - start) / (reps * 8)

    # Scalar path per packet: the inlined generation compare in
    # Switch.process and in the table's _check_key (2 compares), the
    # switch obs guard, the recorder `is None` check, and the table
    # _count guard (3 checks) — padded by ~50% headroom — plus one
    # null span per trace.
    n_batches = -(-len(packets) // batch_size)
    scalar_budget = len(packets) * (4 * per_check + 3 * per_cmp) + per_span
    # Batch path: a handful of guards/compares per *batch*, not per
    # packet.
    batch_budget = n_batches * (8 * per_check + 4 * per_cmp) + per_span

    assert scalar_budget <= 0.05 * scalar_seconds, (
        f"disabled obs cost {scalar_budget:.6f}s exceeds 5% of "
        f"scalar trace time {scalar_seconds:.6f}s"
    )
    assert batch_budget <= 0.05 * batch_seconds, (
        f"disabled obs cost {batch_budget:.6f}s exceeds 5% of "
        f"batch trace time {batch_seconds:.6f}s"
    )
