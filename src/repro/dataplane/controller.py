"""Control plane: install learned rule sets into a switch at runtime.

Plays the role of the SDN controller in the paper's architecture — it takes
the :class:`~repro.core.rules.RuleSet` produced by the learning pipeline,
expands it into ternary entries, and programs the switch's firewall table,
supporting atomic re-deployment (the "dynamically reconfigurable" property
the abstract highlights) and rollback on capacity overflow.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.core.rules import Rule, RuleSet, TernaryEntry
from repro.dataplane.switch import Switch, SwitchConfig
from repro.dataplane.tables import TableFullError, TernaryTable

__all__ = ["GatewayController", "DeploymentReport", "UpdateReport"]

FIREWALL_TABLE = "firewall"


@dataclasses.dataclass
class DeploymentReport:
    """What a deployment did."""

    rules: int
    ternary_entries: int
    match_width_bits: int
    tcam_bits: int
    default_action: str

    def __str__(self) -> str:
        return (
            f"{self.rules} rules → {self.ternary_entries} ternary entries, "
            f"key {self.match_width_bits}b, TCAM {self.tcam_bits}b, "
            f"default={self.default_action}"
        )


@dataclasses.dataclass
class UpdateReport:
    """Entry-level churn of an incremental update."""

    added: int
    removed: int
    kept: int

    def __str__(self) -> str:
        return f"+{self.added} -{self.removed} entries ({self.kept} kept)"


class GatewayController:
    """Runtime controller for one gateway switch.

    Example::

        controller = GatewayController.for_ruleset(rules)
        report = controller.deploy(rules)
        verdict = controller.switch.process(packet)
    """

    def __init__(self, switch: Switch, *, table_capacity: int = 4096):
        self.switch = switch
        self.table_capacity = table_capacity
        self._deployed: Optional[RuleSet] = None
        self._entry_ids: List[int] = []
        self._installed: List[Tuple[TernaryEntry, int]] = []

    @classmethod
    def for_ruleset(
        cls, ruleset: RuleSet, *, table_capacity: int = 4096
    ) -> "GatewayController":
        """Build a switch whose parser matches the rule set's offsets."""
        switch = Switch(SwitchConfig(key_offsets=ruleset.offsets))
        controller = cls(switch, table_capacity=table_capacity)
        return controller

    def _ensure_table(self, default_action: str) -> TernaryTable:
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
        if not isinstance(table, TernaryTable):
            raise TypeError("firewall table is not ternary")
        table.default_action = default_action
        return table

    def deploy(self, ruleset: RuleSet) -> DeploymentReport:
        """Atomically replace the firewall contents with ``ruleset``.

        Raises:
            ValueError: if the rule set's offsets don't match the switch
                parser configuration.
            TableFullError: if the expansion exceeds capacity — the
                previous deployment is restored first.
        """
        if tuple(ruleset.offsets) != self.switch.config.key_offsets:
            raise ValueError(
                f"ruleset offsets {ruleset.offsets} != switch parser "
                f"{self.switch.config.key_offsets}"
            )
        table = self._ensure_table(ruleset.default_action)
        previous = self._deployed
        table.clear()
        self._entry_ids = []
        self._installed = []
        entries = ruleset.to_ternary()
        try:
            for entry in entries:
                entry_id = table.add(
                    entry.value, entry.mask, entry.action,
                    priority=entry.priority,
                )
                self._entry_ids.append(entry_id)
                self._installed.append((entry, entry_id))
        except TableFullError:
            # Roll back to the previous rule set (or empty).
            table.clear()
            self._entry_ids = []
            self._installed = []
            self._deployed = None
            if previous is not None:
                self.deploy(previous)
            raise
        self._deployed = ruleset
        report = ruleset.resource_report(entries)
        return DeploymentReport(
            rules=report["rules"],
            ternary_entries=report["ternary_entries"],
            match_width_bits=report["match_width_bits"],
            tcam_bits=report["tcam_bits"],
            default_action=ruleset.default_action,
        )

    def update(self, ruleset: RuleSet) -> UpdateReport:
        """Incrementally move the table to ``ruleset`` (minimal churn).

        Computes the entry-level diff against the current deployment and
        issues only the necessary removes/adds — the standard controller
        optimisation that keeps rule swaps hitless.  Falls back to a full
        :meth:`deploy` when nothing is deployed yet or the default action
        changes (which cannot be expressed as entry churn).

        Raises:
            TableFullError: if the adds overflow capacity; the previous
                deployment is restored first.
        """
        if (
            self._deployed is None
            or self._deployed.default_action != ruleset.default_action
        ):
            before = len(self._entry_ids)
            self.deploy(ruleset)
            return UpdateReport(added=len(self._entry_ids), removed=before, kept=0)
        if tuple(ruleset.offsets) != self.switch.config.key_offsets:
            raise ValueError(
                f"ruleset offsets {ruleset.offsets} != switch parser "
                f"{self.switch.config.key_offsets}"
            )
        table = self._ensure_table(ruleset.default_action)
        previous = self._deployed

        available: Dict[TernaryEntry, List[int]] = {}
        for entry, entry_id in self._installed:
            available.setdefault(entry, []).append(entry_id)

        new_entries = ruleset.to_ternary()
        reused: List[Tuple[TernaryEntry, Optional[int]]] = []
        to_add: List[TernaryEntry] = []
        for entry in new_entries:
            ids = available.get(entry)
            if ids:
                reused.append((entry, ids.pop()))
            else:
                reused.append((entry, None))
                to_add.append(entry)
        stale_ids = [eid for ids in available.values() for eid in ids]
        for entry_id in stale_ids:
            table.remove(entry_id)
        installed: List[Tuple[TernaryEntry, int]] = []
        try:
            for entry, entry_id in reused:
                if entry_id is None:
                    entry_id = table.add(
                        entry.value, entry.mask, entry.action,
                        priority=entry.priority,
                    )
                installed.append((entry, entry_id))
        except TableFullError:
            self.deploy(previous)  # restore
            raise
        self._installed = installed
        self._entry_ids = [entry_id for __, entry_id in installed]
        self._deployed = ruleset
        return UpdateReport(
            added=len(to_add),
            removed=len(stale_ids),
            kept=len(new_entries) - len(to_add),
        )

    @property
    def deployed(self) -> Optional[RuleSet]:
        return self._deployed

    def hit_counts(self) -> List[int]:
        """Per-entry packet hit counters, in install order."""
        return self.switch.table(FIREWALL_TABLE).hit_counts(self._entry_ids)

    def rule_hit_counts(self) -> List[int]:
        """Per-*rule* packet hits (entry counters aggregated per rule).

        ``to_ternary`` emits each rule's expansion contiguously in rule
        order, so entry counters can be folded back onto the rules the
        operator actually wrote.
        """
        if self._deployed is None:
            return []
        entry_hits = self.hit_counts()
        counts: List[int] = []
        cursor = 0
        for rule in self._deployed.rules:
            width = rule.ternary_entry_count()
            counts.append(sum(entry_hits[cursor : cursor + width]))
            cursor += width
        return counts

    def rule_for_entry(self, entry_id: int) -> Rule:
        """The deployed rule whose ternary expansion installed ``entry_id``.

        The inverse of the expansion :meth:`rule_hit_counts` folds over:
        ``to_ternary`` emits each rule's entries contiguously in rule
        order, so the entry's position in the install list locates the
        originating rule — and through :attr:`Rule.provenance`, the
        Stage-2 tree path it distills from.

        Raises:
            KeyError: when ``entry_id`` is not currently installed.
        """
        if self._deployed is not None:
            try:
                position = self._entry_ids.index(entry_id)
            except ValueError:
                position = -1
            if position >= 0:
                cursor = 0
                for rule in self._deployed.rules:
                    cursor += rule.ternary_entry_count()
                    if position < cursor:
                        return rule
        raise KeyError(f"no installed entry {entry_id}")

    def undeploy(self) -> None:
        """Remove all firewall entries (default action still applies)."""
        table = self._ensure_table(
            self._deployed.default_action if self._deployed else "allow"
        )
        table.clear()
        self._deployed = None
        self._entry_ids = []
        self._installed = []
