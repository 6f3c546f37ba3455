"""E19 (extension) — multi-tenant fleet packing: tenant count vs capacity.

A fleet gateway serves many device classes (tenants) from one packet
stream under one shared ternary-entry budget.  We sweep tenant count
and budget and measure what capacity pressure actually costs:

* **installed / evicted entries** — the capacity controller's packing
  outcome (band-ordered displacement, whole rule sets only);
* **verdict fidelity** — fraction of offered packets whose verdict
  matches a fully-provisioned oracle fleet (same tenants, budget =
  total demand).  Installed tenants are bit-identical to the oracle by
  construction, so fidelity loss is exactly the fail-closed shedding
  of evicted tenants' traffic — the accuracy price of an undersized
  table;
* **throughput** — offered pkt/s over the whole fleet soak.

Assertions gate the ledger invariant (per tenant,
``offered == installed + evicted`` entries), oracle bit-identity for
every installed tenant, and perfect fidelity at full budget.  Timed
section: the widest fleet at full budget.
"""

import dataclasses

from repro.eval.harness import synthetic_firewall_ruleset
from repro.eval.report import format_table
from repro.fleet import FleetGateway, TenantSpec
from repro.serve import ServeConfig, retime

TENANT_COUNTS = [2, 4, 8]
BUDGET_FRACTIONS = [0.4, 0.7, 1.0]
N_PACKETS = 6_000


def _tenant_specs(n: int):
    """``n`` tenants with varied rule-set sizes, bands, and prefixes."""
    specs = []
    for i in range(n):
        rules = synthetic_firewall_ruleset(
            n_rules=24 + 8 * i, fields_per_rule=2, seed=100 + i
        )
        specs.append(
            TenantSpec(
                name=f"class{i}",
                rules=rules,
                band=i % 3,
                src_prefix=f"10.{i}.0.0/16",
            )
        )
    return specs


def _routed_stream(dataset, n_tenants: int):
    """The inet test trace, sources rewritten round-robin into tenant
    prefixes (non-IP frames are left alone and stay unrouted — equally
    so in the oracle, so fidelity is unaffected)."""
    packets = sorted(dataset.test_packets, key=lambda p: p.timestamp)
    packets = (packets * (N_PACKETS // len(packets) + 1))[:N_PACKETS]
    rewritten = []
    for idx, packet in enumerate(packets):
        data = packet.data
        if len(data) >= 30 and data[12:14] == b"\x08\x00":
            tenant = idx % n_tenants
            data = data[:26] + bytes([10, tenant]) + data[28:]
            packet = dataclasses.replace(packet, data=data)
        rewritten.append(packet)
    return list(retime(rewritten, rate=500_000.0, seed=19))


def test_e19_fleet_capacity_sweep(benchmark, inet):
    config = ServeConfig(
        n_shards=1,
        max_batch=256,
        max_latency=0.005,
        queue_capacity=65_536,
        record_verdicts=True,
    )

    rows = []
    widest = None
    for n_tenants in TENANT_COUNTS:
        specs = _tenant_specs(n_tenants)
        demand = sum(spec.cost() for spec in specs)
        stream = _routed_stream(inet, n_tenants)

        oracle = FleetGateway(specs, config, capacity=demand).run(stream)
        assert all(r.admitted for r in oracle.admissions.values())
        oracle_actions = [v.action for v in oracle.verdicts]

        for fraction in BUDGET_FRACTIONS:
            budget = max(1, int(demand * fraction))
            fleet = FleetGateway(specs, config, capacity=budget)
            result = fleet.run(stream)

            # Ledger invariant: every offered entry is installed or
            # evicted with a reason — nothing leaks.
            for name, account in result.accounts.items():
                assert account.balanced, f"{name}: unbalanced ledger"

            # Installed tenants are bit-identical to the oracle run.
            for name, solo in result.per_tenant.items():
                twin = oracle.per_tenant[name]
                assert solo.stats == twin.stats, f"{name}: stats diverged"
                assert solo.verdicts == twin.verdicts

            matches = sum(
                ours.action == oracle_action
                for ours, oracle_action in zip(result.verdicts, oracle_actions)
            )
            fidelity = matches / result.offered
            installed = sum(
                1 for a in result.accounts.values() if a.installed > 0
            )
            evicted = sum(a.evicted for a in result.accounts.values())
            if fraction == 1.0:
                assert fidelity == 1.0
                assert evicted == 0
            rows.append({
                "tenants": n_tenants,
                "budget": budget,
                "demand": demand,
                "installed": f"{installed}/{n_tenants}",
                "evicted_entries": evicted,
                "fidelity": round(fidelity, 4),
                "pkts_per_sec": round(result.offered / result.wall_seconds),
            })
        widest = (specs, demand, stream)

    print()
    print(format_table(
        rows,
        title="E19: fleet packing — tenant count vs shared table budget",
    ))

    specs, demand, stream = widest
    gateway = FleetGateway(specs, config, capacity=demand)

    def run():
        return gateway.run(stream)

    benchmark(run)
