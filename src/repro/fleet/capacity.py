"""Tenant-aware packing of rule sets into a bounded shared table budget.

A real gateway fleet serves many device classes from one TCAM: every
tenant (device class, customer, site) brings a trained rule set, the
hardware brings a fixed entry budget, and something has to decide who
fits.  :class:`CapacityController` is that something — a deterministic
admission controller over *ternary entries* (the unit real TCAM is
billed in, via :meth:`repro.core.rules.RuleSet.resource_report`):

* **Priority bands** — higher ``band`` is more important.  An incoming
  tenant may displace installed tenants of *strictly lower* bands when
  the free budget cannot hold it; equal or higher bands are never
  displaced.
* **Per-tenant quotas** — a tenant whose rule set costs more entries
  than its quota is rejected whole.  Rule sets are never truncated:
  serving a prefix of a rule set silently changes its verdicts, so the
  unit of admission (and of eviction) is the complete tenant rule set.
  That is what keeps multi-tenant serving bit-identical per tenant to a
  single-tenant deployment.
* **Deterministic eviction order** — displacement victims are chosen
  lowest band first, then oldest version, then lexicographic name.
  Packing a fleet twice from the same spec list gives the same layout.

Accounting invariant (asserted by the test suite): for every tenant,
``entries_offered == entries_installed + entries_evicted`` at all
times — every offered entry ends up either installed or attributed to
an explicit eviction reason (``quota``, ``capacity``, ``displaced``,
``superseded``, ``removed``).  Nothing is silently lost, mirroring the
gateway's ``offered == processed + shed`` packet invariant.

Telemetry (``fleet_*``, catalogued in docs/OBSERVABILITY.md): installed
entry gauges per tenant, offered/evicted counters by reason, admission
outcomes, and the ``fleet.pack`` span around full-fleet packing.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.rules import RuleSet

__all__ = [
    "AdmitResult",
    "CapacityController",
    "TenantAccount",
    "TenantSpec",
    "EVICT_REASONS",
    "entries_for",
]

#: Every way entries can leave (or never reach) the shared table.
EVICT_REASONS = ("quota", "capacity", "displaced", "superseded", "removed")


def entries_for(rules: RuleSet) -> int:
    """A rule set's cost in shared-table ternary entries."""
    return rules.resource_report()["ternary_entries"]


@dataclasses.dataclass(frozen=True)
class TenantSpec:
    """One tenant's serving contract.

    Attributes:
        name: stable tenant identifier (labels metrics, verdicts and
            decision records).
        rules: the tenant's trained rule set (typically loaded from the
            detector registry).
        band: priority band; higher bands may displace strictly lower
            ones under capacity pressure (default 0).
        quota: per-tenant entry ceiling; ``None`` = bounded only by the
            shared budget.
        version: rule-set version (registry artifact version); older
            versions evict first within a band.
        src_prefix: IPv4 source prefix (``"10.0.0.0/8"``) routing this
            tenant's traffic; ``None`` makes the tenant a catch-all for
            packets no earlier tenant claimed (see
            :class:`repro.fleet.serving.TenantRouter`).
    """

    name: str
    rules: RuleSet
    band: int = 0
    quota: Optional[int] = None
    version: int = 0
    src_prefix: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.quota is not None and self.quota < 1:
            raise ValueError("quota must be >= 1 (or None)")

    def cost(self) -> int:
        """Entry cost of this tenant's rule set."""
        return entries_for(self.rules)


@dataclasses.dataclass
class TenantAccount:
    """Per-tenant entry accounting (the capacity ledger).

    Invariant: ``offered == installed + evicted``.
    """

    name: str
    band: int = 0
    version: int = 0
    offered: int = 0
    installed: int = 0
    evicted: int = 0
    admitted: bool = False
    reason: str = ""

    @property
    def balanced(self) -> bool:
        return self.offered == self.installed + self.evicted


@dataclasses.dataclass(frozen=True)
class AdmitResult:
    """Outcome of one admission attempt.

    Attributes:
        admitted: whether the tenant's rule set is now installed.
        reason: ``"installed"`` on success, otherwise the eviction
            reason charged (``"quota"`` / ``"capacity"``).
        displaced: names of lower-band tenants evicted to make room,
            in eviction order.
    """

    admitted: bool
    reason: str
    displaced: Tuple[str, ...] = ()


class CapacityController:
    """Packs tenants' rule sets into a shared entry budget.

    Args:
        capacity: total shared-table budget in ternary entries.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.accounts: Dict[str, TenantAccount] = {}
        self._installed: Dict[str, TenantSpec] = {}
        self._capture_obs()
        if self._obs_on:
            self._obs_capacity.set(capacity)

    # -- observability -------------------------------------------------------

    def _capture_obs(self) -> None:
        registry = obs.registry()
        self._registry = registry
        self._obs_on = registry.enabled
        self._obs_capacity = registry.gauge(
            "fleet_capacity_entries",
            help="configured shared table budget in ternary entries",
        )
        self._obs_tenants = registry.gauge(
            "fleet_tenants", help="tenants currently installed"
        )
        self._obs_installed: Dict[str, object] = {}
        self._obs_offered: Dict[str, object] = {}
        self._obs_evictions = registry.counter(
            "fleet_evictions_total",
            help="tenant rule sets evicted from the shared table",
        )

    def _obs_installed_gauge(self, name: str):
        if name not in self._obs_installed:
            self._obs_installed[name] = self._registry.gauge(
                "fleet_entries_installed", {"tenant": name},
                help="ternary entries installed per tenant",
            )
        return self._obs_installed[name]

    def _note_offered(self, name: str, cost: int) -> None:
        if not self._obs_on:
            return
        self._registry.counter(
            "fleet_entries_offered_total", {"tenant": name},
            help="ternary entries offered for admission per tenant",
        ).inc(cost)

    def _note_evicted(self, name: str, cost: int, reason: str) -> None:
        if not self._obs_on:
            return
        self._registry.counter(
            "fleet_entries_evicted_total", {"tenant": name, "reason": reason},
            help="ternary entries evicted or refused, by reason",
        ).inc(cost)

    def _note_admission(self, name: str, outcome: str) -> None:
        if not self._obs_on:
            return
        self._registry.counter(
            "fleet_admissions_total", {"tenant": name, "outcome": outcome},
            help="tenant admission attempts by outcome",
        ).inc()

    # -- ledger --------------------------------------------------------------

    @property
    def installed_entries(self) -> int:
        return sum(a.installed for a in self.accounts.values())

    @property
    def free(self) -> int:
        return self.capacity - self.installed_entries

    def spec(self, name: str) -> TenantSpec:
        """The installed spec for ``name`` (KeyError if not installed)."""
        return self._installed[name]

    def account(self, name: str) -> TenantAccount:
        return self.accounts[name]

    def is_installed(self, name: str) -> bool:
        return name in self._installed

    def _ledger(self, spec: TenantSpec) -> TenantAccount:
        account = self.accounts.get(spec.name)
        if account is None:
            account = TenantAccount(spec.name)
            self.accounts[spec.name] = account
        account.band = spec.band
        account.version = spec.version
        return account

    def check_invariants(self) -> None:
        """Raise if any tenant's ledger fails offered == installed + evicted."""
        for account in self.accounts.values():
            if not account.balanced:
                raise AssertionError(
                    f"tenant {account.name!r} ledger unbalanced: "
                    f"offered={account.offered} != installed="
                    f"{account.installed} + evicted={account.evicted}"
                )
        if self.installed_entries > self.capacity:
            raise AssertionError(
                f"installed {self.installed_entries} exceeds capacity "
                f"{self.capacity}"
            )

    # -- admission / eviction ------------------------------------------------

    def _evict(self, name: str, reason: str) -> None:
        spec = self._installed.pop(name)
        account = self.accounts[name]
        freed = account.installed
        account.evicted += freed
        account.installed = 0
        account.admitted = False
        account.reason = reason
        if self._obs_on:
            self._note_evicted(name, freed, reason)
            self._obs_evictions.inc()
            self._obs_installed_gauge(name).set(0)
            self._obs_tenants.set(len(self._installed))
        del spec  # the rules object is released with the spec

    def _eviction_order(self) -> List[str]:
        """Installed tenants, lowest band → oldest version → name."""
        return sorted(
            self._installed,
            key=lambda n: (
                self._installed[n].band,
                self._installed[n].version,
                n,
            ),
        )

    def admit(self, spec: TenantSpec) -> AdmitResult:
        """Try to install one tenant, displacing lower bands if needed.

        Re-admitting an installed name is a version upgrade: the old
        installation is charged as ``superseded`` first, so its entries
        are accounted before the new cost is offered.
        """
        if spec.name in self._installed:
            self._evict(spec.name, "superseded")
        cost = spec.cost()
        account = self._ledger(spec)
        account.offered += cost
        self._note_offered(spec.name, cost)
        if spec.quota is not None and cost > spec.quota:
            return self._reject(account, cost, "quota")
        if cost > self.capacity:
            return self._reject(account, cost, "capacity")
        displaced: List[str] = []
        if cost > self.free:
            # Victims: strictly lower bands only, lowest band / oldest
            # version / name order, until the tenant fits.
            plan: List[str] = []
            freed = self.free
            for victim in self._eviction_order():
                if self._installed[victim].band >= spec.band:
                    break
                plan.append(victim)
                freed += self.accounts[victim].installed
                if cost <= freed:
                    break
            if cost > freed:
                return self._reject(account, cost, "capacity")
            for victim in plan:
                self._evict(victim, "displaced")
            displaced = plan
        self._installed[spec.name] = spec
        account.installed = cost
        account.admitted = True
        account.reason = "installed"
        self._note_admission(spec.name, "installed")
        if self._obs_on:
            self._obs_installed_gauge(spec.name).set(cost)
            self._obs_tenants.set(len(self._installed))
        return AdmitResult(True, "installed", tuple(displaced))

    def _reject(self, account: TenantAccount, cost: int, reason: str) -> AdmitResult:
        account.evicted += cost
        account.admitted = False
        account.reason = reason
        self._note_evicted(account.name, cost, reason)
        self._note_admission(account.name, f"rejected_{reason}")
        return AdmitResult(False, reason)

    def remove(self, name: str) -> int:
        """Operator removal; returns the entries freed (0 if not installed)."""
        if name not in self._installed:
            return 0
        freed = self.accounts[name].installed
        self._evict(name, "removed")
        return freed

    def pack(self, specs: Sequence[TenantSpec]) -> Dict[str, AdmitResult]:
        """Admit a whole fleet in declaration order (deterministic).

        Declaration order is the operator-visible contract: earlier
        tenants claim budget first, later higher-band tenants can still
        displace them.  The same spec list always packs the same way.
        """
        names = [s.name for s in specs]
        if len(names) != len(set(names)):
            raise ValueError("tenant names must be unique")
        results: Dict[str, AdmitResult] = {}
        with self._registry.span("fleet.pack"):
            for spec in specs:
                results[spec.name] = self.admit(spec)
        return results
