"""Tests for multi-tenant fleet serving (repro.fleet).

Three layers:

* the capacity controller in isolation — quota-exact fits, strictly-
  lower-band displacement, deterministic eviction tie-breaks, the
  ledger invariant ``offered == installed + evicted`` under every
  admission outcome;
* the detector registry — versioned round-trips, content addressing,
  digest verification on load (a corrupted artifact can never deploy),
  object GC on removal;
* the fleet gateway differentials — the load-bearing guarantee that an
  installed tenant's verdicts, decision records, and switch stats are
  **bit-identical** to serving that tenant alone, on both the inline
  and the process executor; plus routing, shed policies, mid-soak
  tenant removal, fleet-spec parsing, pre-fleet record compatibility,
  and the CLI surface.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.core.serialize import ruleset_to_dict, save_ruleset
from repro.dataplane.switch import Verdict
from repro.eval.harness import synthetic_firewall_ruleset
from repro.fleet import (
    EVICT_REASONS,
    CapacityController,
    DetectorRegistry,
    FleetGateway,
    RegistryError,
    TenantRouter,
    TenantSpec,
    entries_for,
    load_fleet_spec,
)
from repro.obs.events import DecisionRecord, event_from_dict, event_to_dict
from repro.obs.flight import FlightRecorder
from repro.serve import ServeConfig, StreamingGateway


def _rules(n_rules: int = 8, seed: int = 0):
    return synthetic_firewall_ruleset(n_rules=n_rules, fields_per_rule=2, seed=seed)


def _spec(name: str, *, n_rules: int = 8, seed: int = 0, **kwargs) -> TenantSpec:
    return TenantSpec(name=name, rules=_rules(n_rules, seed), **kwargs)


def _ip_packet(t: float, src: bytes, rng) -> "Packet":
    """A 64-byte Ethernet/IPv4-shaped frame with a chosen source."""
    from repro.net.packet import Packet

    data = bytearray(rng.integers(0, 256, size=64, dtype=np.uint8).tobytes())
    data[12:14] = b"\x08\x00"
    data[26:30] = src
    return Packet(data=bytes(data), timestamp=t)


def _tenant_stream(n: int, prefixes, seed: int = 0, rate: float = 50_000.0):
    """Packets round-robined over tenant /16 source prefixes."""
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate, size=n)
    times = np.cumsum(gaps)
    packets = []
    for i, t in enumerate(times):
        first, second = prefixes[i % len(prefixes)]
        src = bytes([first, second]) + bytes(rng.integers(0, 256, size=2, dtype=np.uint8))
        packets.append(_ip_packet(float(t), src, rng))
    return packets


class TestCapacityController:
    def test_quota_exact_fit_admits(self):
        spec = _spec("a")
        cost = spec.cost()
        controller = CapacityController(10 * cost)
        exact = dataclasses.replace(spec, quota=cost)
        assert controller.admit(exact).admitted
        assert controller.accounts["a"].installed == cost
        controller.check_invariants()

    def test_quota_one_under_rejects_whole(self):
        spec = _spec("a")
        cost = spec.cost()
        controller = CapacityController(10 * cost)
        tight = dataclasses.replace(spec, quota=cost - 1)
        result = controller.admit(tight)
        assert not result.admitted and result.reason == "quota"
        account = controller.accounts["a"]
        # Rejected whole: nothing installed, everything charged.
        assert account.installed == 0 and account.evicted == cost
        assert account.balanced
        controller.check_invariants()

    def test_capacity_exact_fit_admits(self):
        spec = _spec("a")
        controller = CapacityController(spec.cost())
        assert controller.admit(spec).admitted
        assert controller.free == 0
        controller.check_invariants()

    def test_fleet_refuses_zero_capacity(self):
        """Only ``None`` means "fit every tenant"; 0 is refused."""
        with pytest.raises(ValueError, match="capacity must be >= 1"):
            FleetGateway([_spec("a")], capacity=0)
        assert FleetGateway([_spec("a")]).controller.capacity == _spec("a").cost()

    def test_equal_band_never_displaced(self):
        a, b = _spec("a", seed=1), _spec("b", seed=2)
        controller = CapacityController(a.cost())
        assert controller.admit(a).admitted
        result = controller.admit(b)  # same band: no victims available
        assert not result.admitted and result.reason == "capacity"
        assert result.displaced == ()
        assert controller.is_installed("a")
        controller.check_invariants()

    def test_higher_band_displaces_lower(self):
        low = _spec("low", band=0)
        high = dataclasses.replace(_spec("high", seed=3), band=1)
        controller = CapacityController(max(low.cost(), high.cost()))
        assert controller.admit(low).admitted
        result = controller.admit(high)
        assert result.admitted and result.displaced == ("low",)
        assert controller.accounts["low"].reason == "displaced"
        assert controller.accounts["low"].balanced
        controller.check_invariants()

    def test_eviction_order_band_then_version_then_name(self):
        # Three victims whose order must be: band asc, version asc, name asc.
        victims = [
            dataclasses.replace(_spec("zeta", seed=4), band=0, version=2),
            dataclasses.replace(_spec("alpha", seed=5), band=1, version=1),
            dataclasses.replace(_spec("beta", seed=6), band=1, version=1),
        ]
        total = sum(v.cost() for v in victims)
        controller = CapacityController(total)
        for victim in victims:
            assert controller.admit(victim).admitted
        big = dataclasses.replace(_spec("big", n_rules=16, seed=7), band=5)
        assert victims[0].cost() < big.cost() <= total  # > 1 victim needed
        result = controller.admit(big)
        assert result.admitted
        # zeta (band 0) first, then alpha before beta (same band and
        # version, lexicographic name) — and beta survives because the
        # plan stops as soon as the tenant fits.
        assert result.displaced == ("zeta", "alpha")
        assert controller.is_installed("beta")
        controller.check_invariants()

    def test_failed_displacement_displaces_nobody(self):
        low = _spec("low", band=0)
        # Higher band but the budget can't hold it even after evicting low.
        big = dataclasses.replace(_spec("big", n_rules=64, seed=8), band=1)
        controller = CapacityController(low.cost() + 1)
        assert controller.admit(low).admitted
        result = controller.admit(big)
        assert not result.admitted and result.reason == "capacity"
        assert controller.is_installed("low")  # untouched
        controller.check_invariants()

    def test_readmission_supersedes(self):
        controller = CapacityController(10_000)
        v1 = dataclasses.replace(_spec("a", seed=9), version=1)
        v2 = dataclasses.replace(_spec("a", n_rules=12, seed=10), version=2)
        assert controller.admit(v1).admitted
        assert controller.admit(v2).admitted
        account = controller.accounts["a"]
        assert account.evicted == v1.cost()  # charged as superseded
        assert account.installed == v2.cost()
        assert account.balanced
        assert controller.spec("a").version == 2
        controller.check_invariants()

    def test_remove_frees_budget(self):
        spec = _spec("a")
        controller = CapacityController(spec.cost())
        controller.admit(spec)
        assert controller.remove("a") == spec.cost()
        assert controller.free == controller.capacity
        assert controller.accounts["a"].reason == "removed"
        assert controller.remove("a") == 0  # idempotent
        controller.check_invariants()

    def test_pack_requires_unique_names(self):
        controller = CapacityController(10_000)
        with pytest.raises(ValueError, match="unique"):
            controller.pack([_spec("a"), _spec("a", seed=1)])

    def test_pack_is_deterministic(self):
        specs = [
            dataclasses.replace(_spec("a", seed=1), band=0),
            dataclasses.replace(_spec("b", n_rules=16, seed=2), band=2),
            dataclasses.replace(_spec("c", seed=3), band=1),
        ]
        budget = specs[1].cost() + specs[2].cost()
        first = CapacityController(budget).pack(specs)
        second = CapacityController(budget).pack(specs)
        assert first == second

    def test_validation(self):
        with pytest.raises(ValueError):
            CapacityController(0)
        with pytest.raises(ValueError):
            TenantSpec(name="", rules=_rules())
        with pytest.raises(ValueError):
            TenantSpec(name="a", rules=_rules(), quota=0)

    def test_evict_reasons_are_closed_set(self):
        assert set(EVICT_REASONS) == {
            "quota", "capacity", "displaced", "superseded", "removed",
        }


class TestDetectorRegistry:
    def test_round_trip_across_versions(self, tmp_path):
        registry = DetectorRegistry(tmp_path / "reg")
        r1, r2 = _rules(seed=1), _rules(n_rules=12, seed=2)
        meta1 = registry.put("cameras", r1, note="first")
        meta2 = registry.put("cameras", r2)
        assert (meta1.version, meta2.version) == (1, 2)
        got1, m1 = registry.get("cameras@1")
        got_latest, m_latest = registry.get("cameras@latest")
        got_bare, _ = registry.get("cameras")
        assert ruleset_to_dict(got1) == ruleset_to_dict(r1)
        assert ruleset_to_dict(got_latest) == ruleset_to_dict(r2)
        assert ruleset_to_dict(got_bare) == ruleset_to_dict(r2)
        assert m1.note == "first"
        assert m_latest.version == 2
        assert m1.ternary_entries == entries_for(r1)

    def test_content_addressing_shares_objects(self, tmp_path):
        registry = DetectorRegistry(tmp_path / "reg")
        rules = _rules(seed=3)
        meta1 = registry.put("sensors", rules)
        meta2 = registry.put("sensors", rules)
        assert meta1.digest == meta2.digest
        assert meta2.version == 2
        objects = list((tmp_path / "reg" / "objects").glob("*.json"))
        assert len(objects) == 1

    def test_corruption_detected_on_load(self, tmp_path):
        registry = DetectorRegistry(tmp_path / "reg")
        meta = registry.put("cameras", _rules(seed=4))
        obj = tmp_path / "reg" / "objects" / f"{meta.digest}.json"
        data = json.loads(obj.read_text())
        data["default_action"] = "allow" if data.get("default_action") != "allow" else "drop"
        obj.write_text(json.dumps(data))
        with pytest.raises(RegistryError, match="corrupt"):
            registry.get("cameras@1")

    def test_rm_version_and_class_gc(self, tmp_path):
        registry = DetectorRegistry(tmp_path / "reg")
        shared = _rules(seed=5)
        registry.put("locks", shared)
        registry.put("locks", shared)          # v2, same object
        registry.put("locks", _rules(seed=6))  # v3, new object
        objects = tmp_path / "reg" / "objects"
        assert len(list(objects.glob("*.json"))) == 2
        registry.rm("locks@1")
        # v2 still references the shared object: not collected.
        assert len(list(objects.glob("*.json"))) == 2
        assert [m.version for m in registry.list("locks")] == [2, 3]
        registry.rm("locks")
        assert registry.list() == []
        assert list(objects.glob("*.json")) == []

    def test_bad_refs(self, tmp_path):
        registry = DetectorRegistry(tmp_path / "reg")
        registry.put("cameras", _rules(seed=7))
        for ref in ("", "@", "cameras@", "cameras@zero", "cameras@0"):
            with pytest.raises(RegistryError):
                registry.get(ref)
        with pytest.raises(RegistryError):
            registry.get("unknown@1")
        with pytest.raises(RegistryError):
            registry.get("cameras@9")
        with pytest.raises(RegistryError):
            registry.put("bad@name", _rules())


class TestTenantRouter:
    def test_first_match_in_declaration_order(self):
        rng = np.random.default_rng(0)
        router = TenantRouter([
            _spec("wide", src_prefix="10.0.0.0/8"),
            _spec("narrow", seed=1, src_prefix="10.1.0.0/16"),
        ])
        # 10.1.x.x matches the earlier, wider prefix first.
        assert router.route(_ip_packet(0.0, bytes([10, 1, 2, 3]), rng)) == "wide"

    def test_catch_all_takes_non_ip(self):
        from repro.net.packet import Packet

        rng = np.random.default_rng(0)
        router = TenantRouter([
            _spec("cams", src_prefix="10.1.0.0/16"),
            _spec("rest", seed=1),  # catch-all
        ])
        assert router.route(_ip_packet(0.0, bytes([10, 1, 0, 1]), rng)) == "cams"
        assert router.route(_ip_packet(0.0, bytes([10, 2, 0, 1]), rng)) == "rest"
        assert router.route(Packet(data=b"\x00" * 20)) == "rest"

    def test_unrouted_without_catch_all(self):
        rng = np.random.default_rng(0)
        router = TenantRouter([_spec("cams", src_prefix="10.1.0.0/16")])
        assert router.route(_ip_packet(0.0, bytes([192, 168, 0, 1]), rng)) is None

    def test_ipv6_prefix_rejected(self):
        with pytest.raises(ValueError, match="IPv4"):
            TenantRouter([_spec("v6", src_prefix="2001:db8::/32")])


def _parity_fixture(executor: str):
    """Fleet run + per-tenant solo oracle runs over the same sub-streams."""
    specs = [
        _spec("cams", n_rules=10, seed=21, src_prefix="10.1.0.0/16"),
        _spec("sensors", n_rules=6, seed=22, src_prefix="10.2.0.0/16"),
        _spec("locks", n_rules=8, seed=23, src_prefix="10.3.0.0/16"),
    ]
    packets = _tenant_stream(1_200, [(10, 1), (10, 2), (10, 3)], seed=33)
    config = ServeConfig(
        n_shards=2,
        max_batch=64,
        max_latency=0.002,
        queue_capacity=256,
        service_rate=20_000.0,  # tight enough that batching/shedding engage
        record_verdicts=True,
        executor=executor,
    )
    fleet_recorder = FlightRecorder(100_000, sample_rate=1.0)
    fleet = FleetGateway(specs, config, recorder=fleet_recorder)
    assert all(r.admitted for r in fleet.admissions.values())
    result = fleet.run(packets)

    router = TenantRouter(specs)
    solos = {}
    solo_records = {}
    for spec in specs:
        sub = [p for p in packets if router.route(p) == spec.name]
        recorder = FlightRecorder(100_000, sample_rate=1.0)
        gateway = StreamingGateway(spec.rules, config, recorder=recorder)
        solos[spec.name] = gateway.run(sub)
        solo_records[spec.name] = recorder.records()
    return specs, result, solos, fleet_recorder, solo_records


class TestFleetDifferential:
    """An installed tenant must be bit-identical to its solo deployment."""

    @pytest.mark.parametrize("executor", ["inline", "process"])
    def test_per_tenant_parity_vs_solo_oracle(self, executor):
        specs, result, solos, fleet_recorder, solo_records = _parity_fixture(
            executor
        )
        assert result.offered == 1_200 and result.unrouted == 0
        assert result.offered == result.processed + result.shed

        by_tenant = {}
        for record in fleet_recorder.records():
            by_tenant.setdefault(record.tenant, []).append(record)

        for spec in specs:
            solo = solos[spec.name]
            twin = result.per_tenant[spec.name]
            # Verdict stream: identical modulo the tenant tag.
            assert [
                dataclasses.replace(v, tenant=None) for v in twin.verdicts
            ] == solo.verdicts
            assert all(v.tenant == spec.name for v in twin.verdicts)
            # Switch stats and soak accounting: exactly equal.
            assert twin.stats == solo.stats
            assert (twin.offered, twin.processed, twin.shed) == (
                solo.offered, solo.processed, solo.shed,
            )
            assert twin.flush_reasons == solo.flush_reasons
            assert twin.latency_p99 == solo.latency_p99
            assert twin.batcher_wait_p99 == solo.batcher_wait_p99
            # Decision records: same set, seq = the tenant's own arrival
            # index.  The process backend reaps worker results in
            # wall-clock order, so arrival order into the shared
            # recorder is not deterministic — compare sorted by seq.
            fleet_recs = sorted(
                by_tenant.get(spec.name, []), key=lambda r: (r.seq, r.kind)
            )
            solo_recs = sorted(
                solo_records[spec.name], key=lambda r: (r.seq, r.kind)
            )
            assert [
                dataclasses.replace(r, tenant=None) for r in fleet_recs
            ] == solo_recs

        # Entry ledger: offered == installed + evicted, nothing evicted.
        for name, account in result.accounts.items():
            assert account.balanced
            assert account.evicted == 0

    @pytest.mark.parametrize("executor", ["inline", "process"])
    def test_retrain_hook_swaps_like_solo(self, executor):
        """A tenant's retrain hook swaps its rules mid-run in the fleet
        exactly as it does for the tenant served alone."""

        from tests.test_gateway_golden import _SwapHook

        specs = [
            _spec("cams", n_rules=10, seed=21, src_prefix="10.1.0.0/16"),
            _spec("sensors", n_rules=6, seed=22, src_prefix="10.2.0.0/16"),
        ]
        packets = _tenant_stream(1_200, [(10, 1), (10, 2)], seed=35)
        config = ServeConfig(
            n_shards=2, max_batch=64, max_latency=0.002, queue_capacity=256,
            service_rate=20_000.0, executor=executor,
        )
        result = FleetGateway(
            specs, config, retrain_hooks={"cams": _SwapHook(200)}
        ).run(packets)
        sub = [p for p in packets if TenantRouter(specs).route(p) == "cams"]
        solo = StreamingGateway(
            specs[0].rules, config, retrain_hook=_SwapHook(200)
        ).run(sub)
        twin = result.per_tenant["cams"]
        assert twin.rule_swaps == solo.rule_swaps == 1
        assert result.per_tenant["sensors"].rule_swaps == 0
        assert [
            dataclasses.replace(v, tenant=None) for v in twin.verdicts
        ] == solo.verdicts
        assert twin.stats == solo.stats
        assert (twin.offered, twin.processed, twin.shed) == (
            solo.offered, solo.processed, solo.shed,
        )

    def test_merged_verdicts_cover_every_packet_in_arrival_order(self):
        specs, result, solos, _, _ = _parity_fixture("inline")
        assert len(result.verdicts) == result.offered
        router = TenantRouter(specs)
        packets = _tenant_stream(1_200, [(10, 1), (10, 2), (10, 3)], seed=33)
        positions = {name: 0 for name in solos}
        for packet, verdict in zip(packets, result.verdicts):
            name = router.route(packet)
            assert verdict.tenant == name
            solo_verdict = solos[name].verdicts[positions[name]]
            positions[name] += 1
            assert dataclasses.replace(verdict, tenant=None) == solo_verdict


class TestFleetShedding:
    def _run(self, policy: str):
        specs = [
            _spec("served", seed=31, src_prefix="10.1.0.0/16"),
            dataclasses.replace(
                _spec("starved", n_rules=12, seed=32, src_prefix="10.2.0.0/16"),
                quota=1,  # impossible quota: never installed
            ),
        ]
        packets = _tenant_stream(400, [(10, 1), (10, 2), (192, 168)], seed=34)
        config = ServeConfig(
            max_batch=64, max_latency=0.002, record_verdicts=True,
            policy=policy,
        )
        recorder = FlightRecorder(10_000, sample_rate=1.0)
        fleet = FleetGateway(specs, config, recorder=recorder)
        return fleet, fleet.run(packets), recorder

    def test_fail_closed_sheds_drop(self):
        fleet, result, recorder = self._run("fail-closed")
        assert not fleet.admissions["starved"].admitted
        assert result.shed_tenants["starved"] > 0
        assert result.unrouted > 0  # the 192.168 packets
        assert result.offered == result.processed + result.shed
        starved = [v for v in result.verdicts if v.tenant == "starved"]
        assert starved and all(v.action == "drop" for v in starved)
        unrouted = [v for v in result.verdicts if v.tenant is None]
        assert len(unrouted) == result.unrouted
        # Shed records are critical: every one is in the recorder.
        shed_recs = [
            r for r in recorder.records()
            if r.kind == "shed" and r.tenant == "starved"
        ]
        assert len(shed_recs) == result.shed_tenants["starved"]
        assert [r.seq for r in shed_recs] == list(range(len(shed_recs)))
        account = result.accounts["starved"]
        assert account.reason == "quota" and account.balanced

    def test_fail_open_sheds_allow(self):
        _, result, _ = self._run("fail-open")
        starved = [v for v in result.verdicts if v.tenant == "starved"]
        assert starved and all(v.action == "allow" for v in starved)

    def test_final_alert_pass_stamped_at_last_arrival(self):
        packets = _tenant_stream(50, [(192, 168)], seed=35)
        registry = obs.Registry(enabled=True)
        with obs.use_registry(registry):
            engine = obs.AlertEngine(obs.default_fleet_alerts(), registry=registry)
            fleet = FleetGateway(
                [_spec("cams", src_prefix="10.1.0.0/16")],
                ServeConfig(max_batch=64),
                alert_engine=engine,
            )
            result = fleet.run(packets)
        assert result.unrouted == len(packets)
        fired = [a for a in result.alerts if a.name == "fleet_unrouted_rate_high"]
        assert [a.timestamp for a in fired] == [packets[-1].timestamp]


class TestTenantLifecycle:
    def test_remove_mid_soak_via_hook(self):
        specs = [
            _spec("first", seed=41, src_prefix="10.1.0.0/16"),
            _spec("second", seed=42, src_prefix="10.2.0.0/16"),
        ]
        packets = _tenant_stream(400, [(10, 1), (10, 2)], seed=43)
        config = ServeConfig(
            max_batch=64, max_latency=0.002, record_verdicts=True,
        )

        def hook(name, result):
            if name == "first":
                assert result is not None
                fleet.remove("second")

        fleet = FleetGateway(specs, config, tenant_hook=hook)
        result = fleet.run(packets)
        assert "second" not in result.per_tenant
        assert result.shed_tenants["second"] == 200
        account = result.accounts["second"]
        assert account.reason == "removed" and account.balanced
        assert result.offered == result.processed + result.shed

    def test_install_version_upgrade_between_runs(self):
        spec = _spec("cams", seed=44, src_prefix="10.1.0.0/16")
        packets = _tenant_stream(200, [(10, 1)], seed=45)
        config = ServeConfig(
            max_batch=64, max_latency=0.002, record_verdicts=True,
        )
        fleet = FleetGateway([spec], config, capacity=10_000)
        first = fleet.run(packets)
        new_rules = _rules(n_rules=12, seed=46)
        admit = fleet.install("cams", new_rules)
        assert admit.admitted
        second = fleet.run(packets)
        account = second.accounts["cams"]
        assert account.evicted == spec.cost()  # old version superseded
        assert account.installed == entries_for(new_rules)
        assert account.balanced
        # The new rules actually serve: verdict stream re-derived solo.
        solo = StreamingGateway(new_rules, config).run(packets)
        assert [
            dataclasses.replace(v, tenant=None) for v in second.verdicts
        ] == solo.verdicts
        assert first.verdicts != second.verdicts  # rules really changed


class TestFleetSpecFile:
    def test_load_with_rules_path_and_registry_ref(self, tmp_path):
        registry = DetectorRegistry(tmp_path / "reg")
        cam_rules = _rules(seed=51)
        registry.put("cameras", cam_rules)
        sensor_rules = _rules(n_rules=6, seed=52)
        save_ruleset(sensor_rules, tmp_path / "sensors.json")
        spec_path = tmp_path / "fleet.json"
        spec_path.write_text(json.dumps({
            "capacity": 2048,
            "tenants": [
                {"name": "cameras", "detector": "cameras@1",
                 "band": 1, "quota": 1024, "src_prefix": "10.1.0.0/16"},
                {"name": "sensors", "rules": "sensors.json"},
            ],
        }))
        capacity, specs = load_fleet_spec(
            spec_path, registry_root=tmp_path / "reg"
        )
        assert capacity == 2048
        assert [s.name for s in specs] == ["cameras", "sensors"]
        assert ruleset_to_dict(specs[0].rules) == ruleset_to_dict(cam_rules)
        assert specs[0].version == 1 and specs[0].band == 1
        assert specs[0].quota == 1024
        assert ruleset_to_dict(specs[1].rules) == ruleset_to_dict(sensor_rules)
        assert specs[1].src_prefix is None  # catch-all

    def test_spec_zero_capacity_is_refused(self, tmp_path):
        save_ruleset(_rules(seed=53), tmp_path / "a.json")
        spec_path = tmp_path / "fleet.json"
        spec_path.write_text(json.dumps(
            {"capacity": 0, "tenants": [{"name": "a", "rules": "a.json"}]}
        ))
        capacity, specs = load_fleet_spec(spec_path)
        assert capacity == 0
        with pytest.raises(ValueError, match="capacity must be >= 1"):
            FleetGateway(specs, capacity=capacity)

    def test_spec_errors(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps({"tenants": []}))
        with pytest.raises(ValueError, match="non-empty"):
            load_fleet_spec(path)
        path.write_text(json.dumps({"tenants": [{"name": "a"}]}))
        with pytest.raises(ValueError, match="'detector' or 'rules'"):
            load_fleet_spec(path)
        path.write_text(json.dumps(
            {"tenants": [{"name": "a", "detector": "a@1"}]}
        ))
        with pytest.raises(ValueError, match="registry-root"):
            load_fleet_spec(path)


class TestPreFleetCompatibility:
    def test_record_dict_without_tenant_field_loads(self):
        record = DecisionRecord(kind="decision", seq=3, timestamp=1.0,
                                verdict="drop")
        data = event_to_dict(record)
        data.pop("tenant", None)  # a dump written before fleet serving
        loaded = event_from_dict(data)
        assert loaded.tenant is None
        assert loaded.seq == 3 and loaded.verdict == "drop"

    def test_single_tenant_paths_stay_untagged(self):
        assert Verdict("allow").tenant is None
        packets = _tenant_stream(50, [(10, 1)], seed=61)
        result = StreamingGateway(
            _rules(seed=62),
            ServeConfig(record_verdicts=True),
        ).run(packets)
        assert all(v.tenant is None for v in result.verdicts)


class TestFleetCLI:
    @pytest.fixture()
    def fleet_files(self, tmp_path):
        registry_root = tmp_path / "reg"
        rules_path = tmp_path / "cams.json"
        save_ruleset(_rules(n_rules=10, seed=71), rules_path)
        assert main([
            "registry", "--root", str(registry_root),
            "train", "cameras", "--from-rules", str(rules_path),
        ]) == 0
        save_ruleset(_rules(n_rules=6, seed=72), tmp_path / "sensors.json")
        spec_path = tmp_path / "fleet.json"
        spec_path.write_text(json.dumps({
            "tenants": [
                {"name": "cameras", "detector": "cameras@latest",
                 "src_prefix": "10.0.0.0/8"},
                {"name": "sensors", "rules": "sensors.json"},
            ],
        }))
        return registry_root, spec_path

    def test_registry_commands(self, fleet_files, capsys):
        registry_root, _ = fleet_files
        assert main(["registry", "--root", str(registry_root), "list"]) == 0
        out = capsys.readouterr().out
        assert "cameras" in out and "@1" in out
        assert main([
            "registry", "--root", str(registry_root), "show", "cameras@1",
        ]) == 0
        assert "cameras@1" in capsys.readouterr().out
        assert main([
            "registry", "--root", str(registry_root), "rm", "cameras",
        ]) == 0
        with pytest.raises(SystemExit):
            main(["registry", "--root", str(registry_root), "show", "cameras"])

    def test_serve_tenants_smoke(self, fleet_files, capsys):
        registry_root, spec_path = fleet_files
        code = main([
            "serve", "--tenants", str(spec_path),
            "--registry-root", str(registry_root),
            "--synthetic", "inet", "--packets", "400", "--rate", "50000",
            "--max-batch", "64",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "tenants served" in out
        assert "tenant cameras" in out
        assert "entries offered" in out

    def test_serve_zero_fleet_capacity_exits(self, fleet_files):
        registry_root, spec_path = fleet_files
        with pytest.raises(SystemExit, match="capacity must be >= 1") as exc:
            main([
                "serve", "--tenants", str(spec_path),
                "--registry-root", str(registry_root),
                "--synthetic", "inet", "--packets", "400", "--rate", "50000",
                "--fleet-capacity", "0",
            ])
        assert exc.value.code not in (0, None)

    def test_serve_without_rules_or_tenants_exits(self):
        with pytest.raises(SystemExit, match="rules file"):
            main(["serve", "--synthetic", "inet", "--packets", "10"])
