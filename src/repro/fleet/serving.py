"""Multi-tenant fleet serving: route flows to per-tenant rule sets.

:class:`FleetGateway` serves many tenants (device classes) from one
packet stream under one shared table budget.  The pieces:

* a :class:`~repro.fleet.capacity.CapacityController` packs the
  declared tenants' rule sets into the budget (bands, quotas,
  deterministic eviction) before any packet is served;
* a :class:`TenantRouter` assigns every arriving packet to the first
  tenant whose IPv4 source prefix claims it (a catch-all tenant —
  ``src_prefix=None`` — takes the rest);
* each *installed* tenant is served by its own
  :class:`~repro.serve.gateway.StreamingGateway` over its sub-stream —
  the full existing machinery: adaptive batching, bounded queues,
  shedding, compiled classification, inline or process executors, and
  atomic rule swaps via ``ShardSet.install()`` / the worker
  quiesce-barrier;
* traffic for tenants the controller refused (and packets no tenant
  claims) is shed with the configured fail-open/fail-closed policy —
  counted, verdict-stamped, flight-recorded, never silently lost.

**Per-tenant bit-identity.**  Serving is a discrete-event simulation in
stream time: batching deadlines, queue admission, service completions
and shedding are pure functions of each tenant's own arrival
timestamps, and tenants share no stream-time resource (the shared
budget is spent at admission, not per packet).  Tenants are therefore
served one sub-stream at a time — exactly equivalent to any
interleaving — and every tenant's verdicts, decision records (seq =
per-tenant arrival index), and switch stats are *bit-identical* to the
same tenant deployed alone.  The differential suite in
``tests/test_fleet.py`` locks this on both executors.

Accounting invariants: ``offered == routed + unrouted`` and, per
tenant, ``offered == processed + shed`` (inner gateway) — plus the
controller's ``entries offered == installed + evicted``.
"""

from __future__ import annotations

import dataclasses
import ipaddress
import json
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.core.rules import RuleSet
from repro.dataplane.switch import SwitchStats, Verdict
from repro.fleet.capacity import (
    AdmitResult,
    CapacityController,
    TenantAccount,
    TenantSpec,
)
from repro.net.packet import Packet
from repro.serve.gateway import (
    SHED_ACTIONS,
    ServeConfig,
    SoakResult,
    StreamingGateway,
    arrival_order,
)

__all__ = [
    "FleetGateway",
    "FleetSoakResult",
    "TenantRouter",
    "load_fleet_spec",
]

#: Ethernet/IPv4 source-address geometry the router matches on.
_ETHERTYPE = slice(12, 14)
_IPV4 = b"\x08\x00"
_SRC = slice(26, 30)


class TenantRouter:
    """First-match routing of packets to tenant names.

    Tenants with an IPv4 ``src_prefix`` claim packets whose Ethernet
    frame carries that source address; a ``src_prefix=None`` tenant is
    a catch-all (matches anything, including non-IP frames).  Matching
    is in declaration order; packets no tenant claims route to ``None``
    and are shed by the fleet policy.
    """

    def __init__(self, specs: Sequence[TenantSpec]):
        self._routes: List[Tuple[str, Optional[int], int]] = []
        for spec in specs:
            if spec.src_prefix is None:
                self._routes.append((spec.name, None, 0))
                continue
            network = ipaddress.ip_network(spec.src_prefix, strict=False)
            if network.version != 4:
                raise ValueError(
                    f"tenant {spec.name!r}: only IPv4 prefixes are routable, "
                    f"got {spec.src_prefix!r}"
                )
            self._routes.append(
                (spec.name, int(network.network_address), int(network.netmask))
            )

    def route(self, packet: Packet) -> Optional[str]:
        """Tenant name for this packet, or ``None`` (unrouted)."""
        data = packet.data
        src: Optional[int] = None
        if len(data) >= _SRC.stop and data[_ETHERTYPE] == _IPV4:
            src = int.from_bytes(data[_SRC], "big")
        for name, network, mask in self._routes:
            if network is None:
                return name
            if src is not None and (src & mask) == network:
                return name
        return None


@dataclasses.dataclass
class FleetSoakResult:
    """Outcome of one multi-tenant run.

    Attributes:
        offered: packets the source produced.
        processed: packets classified across all tenant gateways.
        shed: packets refused anywhere — tenant backpressure, traffic
            of tenants the controller did not install, and unrouted
            packets.
        unrouted: packets no tenant's router entry claimed.
        wall_seconds: whole-run wall clock (demux + every tenant).
        per_tenant: each *served* tenant's full :class:`SoakResult`
            (bit-identical to serving that tenant alone).
        shed_tenants: packets shed per tenant that was declared but not
            installed (rejected, displaced, or removed).
        admissions: the capacity controller's decision per tenant.
        accounts: the controller's entry ledger per tenant.
        verdicts: merged per-packet verdicts in global arrival order,
            tenant-tagged (``record_verdicts`` only).
        alerts: SLO alert events fired during the run.
    """

    offered: int
    processed: int
    shed: int
    unrouted: int
    wall_seconds: float
    per_tenant: Dict[str, SoakResult]
    shed_tenants: Dict[str, int]
    admissions: Dict[str, AdmitResult]
    accounts: Dict[str, TenantAccount]
    verdicts: Optional[List[Verdict]] = None
    alerts: List[object] = dataclasses.field(default_factory=list)

    @property
    def rule_swaps(self) -> int:
        return sum(r.rule_swaps for r in self.per_tenant.values())

    @property
    def stats(self) -> SwitchStats:
        """Aggregate switch statistics across every served tenant."""
        return SwitchStats.aggregate(
            [r.stats for r in self.per_tenant.values()]
        )

    def summary(self) -> str:
        served = sum(r.offered for r in self.per_tenant.values())
        lines = [
            f"fleet     {len(self.per_tenant)} tenants served, "
            f"{len(self.shed_tenants)} shed, {self.unrouted} unrouted pkts",
            f"offered   {self.offered} pkts ({served} routed to served "
            f"tenants)",
            f"processed {self.processed} pkts in {self.wall_seconds:.3f}s "
            f"wall",
            f"shed      {self.shed} pkts",
        ]
        for name, result in self.per_tenant.items():
            lines.append(
                f"  tenant {name}: {result.processed} processed, "
                f"{result.shed} shed, verdicts "
                f"{result.stats.allowed}a/{result.stats.dropped}d/"
                f"{result.stats.quarantined}q"
                + (f", {result.rule_swaps} swaps" if result.rule_swaps else "")
            )
        for name, count in self.shed_tenants.items():
            reason = self.accounts[name].reason
            lines.append(f"  tenant {name}: not installed ({reason}), "
                         f"{count} pkts shed")
        if self.alerts:
            lines.append(
                f"alerts    {len(self.alerts)} fired: "
                + ", ".join(sorted({a.name for a in self.alerts}))
            )
        return "\n".join(lines)


#: Called after each tenant's sub-run: (tenant name, its SoakResult or
#: None when the tenant was shed).  May call ``FleetGateway.remove`` to
#: take a later tenant out of service mid-soak.
TenantHook = Callable[[str, Optional[SoakResult]], None]


class FleetGateway:
    """Serve many tenants from one stream under one table budget.

    Example::

        tenants = [
            TenantSpec("cameras", cam_rules, band=1, quota=512,
                       src_prefix="10.1.0.0/16"),
            TenantSpec("sensors", sensor_rules, src_prefix="10.2.0.0/16"),
        ]
        fleet = FleetGateway(tenants, capacity=1024)
        result = fleet.run(source)
        print(result.summary())

    Args:
        tenants: tenant specs in declaration (packing + routing) order.
        config: fleet-wide serving policy; per-tenant gateways inherit
            everything except ``table_capacity`` (sized to the tenant's
            installed rule set, never below the configured value).
        capacity: shared table budget in ternary entries (at least
            1); ``None`` sizes the budget to fit every declared tenant
            exactly (admission then only enforces quotas).
        recorder: one flight recorder shared across tenants — decision
            and shed records carry the tenant name.
        alert_engine: evaluated after each tenant's sub-run and
            finalized at the end.
        retrain_hooks: per-tenant drift/retrain hooks (tenant name →
            hook) driving mid-stream atomic per-tenant rule swaps via
            the existing ``ShardSet.install()`` / quiesce-barrier path.
        tenant_hook: see :data:`TenantHook`.
    """

    def __init__(
        self,
        tenants: Sequence[TenantSpec],
        config: Optional[ServeConfig] = None,
        *,
        capacity: Optional[int] = None,
        recorder=None,
        alert_engine=None,
        retrain_hooks: Optional[Dict[str, Callable]] = None,
        tenant_hook: Optional[TenantHook] = None,
    ):
        self.config = config or ServeConfig()
        specs = tuple(tenants)
        if not specs:
            raise ValueError("fleet serving needs at least one TenantSpec")
        budget = (
            max(1, sum(spec.cost() for spec in specs)) if capacity is None else capacity
        )
        self.specs: Dict[str, TenantSpec] = {s.name: s for s in specs}
        self.order: List[str] = [s.name for s in specs]
        self.controller = CapacityController(budget)
        self.admissions = self.controller.pack(specs)
        self.router = TenantRouter(specs)
        self.recorder = recorder
        self.alert_engine = alert_engine
        self.retrain_hooks = dict(retrain_hooks or {})
        self.tenant_hook = tenant_hook
        self._capture_obs()

    def _capture_obs(self) -> None:
        registry = obs.registry()
        self._registry = registry
        self._obs_on = registry.enabled
        self._obs_offered = registry.counter(
            "fleet_offered_packets_total",
            help="packets offered to the fleet gateway",
        )
        self._obs_unrouted = registry.counter(
            "fleet_unrouted_packets_total",
            help="packets no tenant's routing entry claimed",
        )

    # -- tenant lifecycle ----------------------------------------------------

    def remove(self, name: str) -> int:
        """Take a tenant out of service; its remaining traffic sheds.

        Returns the shared-table entries freed.  Callable between runs
        or from a :data:`TenantHook` mid-soak (tenants are served in
        declaration order, so removal affects tenants not yet served).
        """
        if name not in self.specs:
            raise KeyError(f"unknown tenant {name!r}")
        return self.controller.remove(name)

    def install(self, name: str, rules: RuleSet, *, version: Optional[int] = None) -> AdmitResult:
        """Re-admit a tenant with a new rule-set version (between runs).

        The old installation is charged as ``superseded``; the new
        version competes for budget under the same band/quota.
        """
        old = self.specs[name]
        spec = dataclasses.replace(
            old,
            rules=rules,
            version=old.version + 1 if version is None else version,
        )
        self.specs[name] = spec
        result = self.controller.admit(spec)
        self.admissions[name] = result
        return result

    # -- serving -------------------------------------------------------------

    def _shed_stream(self, tenant: Optional[str], stream: List[Packet]) -> Verdict:
        """Shed every packet of an unserved (sub-)stream; returns their
        policy verdict."""
        action = SHED_ACTIONS[self.config.policy]
        if self.recorder is not None:
            self.recorder.add_sheds(
                range(len(stream)), [packet.timestamp for packet in stream],
                action, tenant=tenant,
            )
        return Verdict(action, table=None, entry_id=None, tenant=tenant)

    def _tenant_config(self, spec: TenantSpec) -> ServeConfig:
        return dataclasses.replace(
            self.config,
            table_capacity=max(self.config.table_capacity, spec.cost()),
        )

    def run(self, source: Iterable[Packet]) -> FleetSoakResult:
        """Route, pack-check, and serve the stream; returns the result."""
        wall_start = time.perf_counter()
        with self._registry.span("fleet.soak"):
            # Per tenant (``None``: unrouted), the arrival indices of its
            # packets and the packets themselves.
            routed: Dict[Optional[str], Tuple[List[int], List[Packet]]] = {
                name: ([], []) for name in [*self.order, None]
            }
            offered = 0
            end = 0.0  # stream time of the last arrival
            route = self.router.route
            for packet in source:
                indices, stream = routed[route(packet)]
                indices.append(offered)
                stream.append(packet)
                offered += 1
                end = packet.timestamp
            unrouted_indices, unrouted = routed[None]
            if self._obs_on:
                self._obs_offered.inc(offered)
                self._obs_unrouted.inc(len(unrouted))
            per_tenant: Dict[str, SoakResult] = {}
            shed_tenants: Dict[str, int] = {}
            alerts: List[object] = []
            # (arrival indices, their verdicts) per tenant and unrouted.
            parts = []
            for name in self.order:
                indices, stream = routed[name]
                if self.controller.is_installed(name):
                    result = self._serve_tenant(name, stream)
                    per_tenant[name] = result
                    alerts.extend(result.alerts)
                    parts.append((indices, result.verdicts))
                else:
                    parts.append((indices, self._shed_stream(name, stream)))
                    shed_tenants[name] = len(stream)
                    if self._obs_on and stream:
                        self._registry.counter(
                            "fleet_shed_packets_total", {"tenant": name},
                            help="packets shed because their tenant was not installed",
                        ).inc(len(stream))
                if self.alert_engine is not None and stream:
                    alerts.extend(self.alert_engine.evaluate(stream[-1].timestamp))
                if self.tenant_hook is not None:
                    self.tenant_hook(name, per_tenant.get(name))
            parts.append((unrouted_indices, self._shed_stream(None, unrouted)))
            if self.alert_engine is not None:
                alerts.extend(self.alert_engine.evaluate(end))
                self.alert_engine.finalize()
        wall = time.perf_counter() - wall_start
        processed = sum(r.processed for r in per_tenant.values())
        shed = (
            sum(r.shed for r in per_tenant.values())
            + sum(shed_tenants.values())
            + len(unrouted)
        )
        return FleetSoakResult(
            offered=offered,
            processed=processed,
            shed=shed,
            unrouted=len(unrouted),
            wall_seconds=wall,
            per_tenant=per_tenant,
            shed_tenants=shed_tenants,
            admissions=dict(self.admissions),
            accounts={
                name: dataclasses.replace(account)
                for name, account in self.controller.accounts.items()
            },
            verdicts=(
                arrival_order(offered, parts)
                if self.config.record_verdicts
                else None
            ),
            alerts=alerts,
        )

    def _serve_tenant(self, name: str, stream: List[Packet]) -> SoakResult:
        """One tenant's sub-stream through its own StreamingGateway.

        Stream time is carried by the packets themselves, so serving
        tenants sequentially is exactly equivalent to any interleaving
        — and identical to serving this tenant alone (see the module
        docstring).
        """
        spec = self.controller.spec(name)
        gateway = StreamingGateway(
            spec.rules,
            self._tenant_config(spec),
            tenant=name,
            recorder=self.recorder,
            retrain_hook=self.retrain_hooks.get(name),
        )
        result = gateway.run(stream)
        if self._obs_on and stream:
            self._registry.counter(
                "fleet_tenant_packets_total", {"tenant": name},
                help="packets routed per tenant",
            ).inc(len(stream))
        return result


def load_fleet_spec(
    path: Union[str, Path],
    *,
    registry_root: Optional[Union[str, Path]] = None,
) -> Tuple[Optional[int], List[TenantSpec]]:
    """Parse an operator fleet-spec JSON file into tenant specs.

    Format (see docs/OPERATIONS.md)::

        {"capacity": 1024,
         "tenants": [
           {"name": "cameras", "detector": "cameras@2",
            "band": 1, "quota": 512, "src_prefix": "10.1.0.0/16"},
           {"name": "sensors", "rules": "sensors.json"}]}

    Each tenant names its rule set either as a registry reference
    (``detector``, resolved against ``registry_root``) or a rules JSON
    path (``rules``, relative to the spec file).  Returns
    ``(capacity, specs in declaration order)``, the capacity ``None``
    when the spec names none (a named 0 is refused by
    :class:`FleetGateway`).
    """
    from repro.core.serialize import load_ruleset
    from repro.fleet.registry import DetectorRegistry

    path = Path(path)
    data = json.loads(path.read_text(encoding="utf-8"))
    entries = data.get("tenants")
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"{path}: fleet spec needs a non-empty 'tenants' list")
    registry = (
        DetectorRegistry(registry_root) if registry_root is not None else None
    )
    specs: List[TenantSpec] = []
    for entry in entries:
        name = entry.get("name")
        if not name:
            raise ValueError(f"{path}: every tenant needs a 'name'")
        version = int(entry.get("version", 0))
        if "detector" in entry:
            if registry is None:
                raise ValueError(
                    f"{path}: tenant {name!r} references the detector "
                    "registry; pass --registry-root"
                )
            rules, meta = registry.get(entry["detector"])
            version = version or meta.version
        elif "rules" in entry:
            rules = load_ruleset(path.parent / entry["rules"])
        else:
            raise ValueError(
                f"{path}: tenant {name!r} needs 'detector' or 'rules'"
            )
        specs.append(
            TenantSpec(
                name=name,
                rules=rules,
                band=int(entry.get("band", 0)),
                quota=entry.get("quota"),
                version=version,
                src_prefix=entry.get("src_prefix"),
            )
        )
    capacity = data.get("capacity")
    return (int(capacity) if capacity is not None else None), specs
