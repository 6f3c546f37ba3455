"""Control plane: install learned rule sets into a switch at runtime.

Plays the role of the SDN controller in the paper's architecture — it takes
the :class:`~repro.core.rules.RuleSet` produced by the learning pipeline,
expands it into ternary entries, and programs the switch's firewall table,
supporting atomic re-deployment (the "dynamically reconfigurable" property
the abstract highlights) and rollback on capacity overflow.

The install path works on arrays end to end: the rule set's
:meth:`~repro.core.rules.RuleSet.expand` arrays, one packed row key per
installed entry for the diff, and the table's batch
:meth:`~repro.dataplane.tables.TernaryTable.add_many` /
:meth:`~repro.dataplane.tables._PriorityTable.remove_many`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.rules import Rule, RuleSet, TernaryArrays
from repro.dataplane.switch import Switch, SwitchConfig
from repro.dataplane.tables import TableFullError, TernaryTable

__all__ = ["Expansion", "GatewayController", "DeploymentReport", "UpdateReport"]

FIREWALL_TABLE = "firewall"


def _row_keys(arrays: TernaryArrays) -> np.ndarray:
    """One packed key per entry: value | mask | priority | action code.

    A ``(E,)`` void array whose items are equal exactly when the entries'
    :class:`~repro.core.rules.TernaryEntry` objects are.
    """
    count, width = arrays.values.shape
    packed = np.empty((count, 2 * width + 9), dtype=np.uint8)
    packed[:, :width] = arrays.values
    packed[:, width : 2 * width] = arrays.masks
    packed[:, 2 * width : -1] = arrays.priorities.view(np.uint8).reshape(count, 8)
    packed[:, -1] = arrays.actions
    return packed.view(np.dtype((np.void, packed.shape[1]))).reshape(count)


def _match_installed(
    installed: np.ndarray, new: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Pair new entries with equal installed ones, as multisets.

    Args:
        installed: ``(m,)`` row keys of the installed entries, in
            install order.
        new: ``(n,)`` row keys of the entries to serve, in order.

    Returns:
        ``(source, stale)``: ``source[i]`` is the installed position the
        ``i``-th new entry keeps (``-1``: it is added); ``stale`` lists
        the installed positions to remove, in removal order.

    Among equal entries the ``k``-th new one keeps the ``k``-th last
    installed one.  The installed ones left over are removed group by
    group, groups in order of their first installed member, members in
    install order.  That is the pairing of a dict from entry to its
    installed ids, popped from the back, with the leftovers removed in
    the dict's order.
    """
    m = len(installed)
    joint = np.concatenate([installed, new])
    # Stable: among equal keys the installed ones come first, each side
    # in its own order.
    order = np.argsort(joint, kind="stable")
    ranked = joint[order]
    head = np.ones(len(joint), dtype=bool)
    head[1:] = ranked[1:] != ranked[:-1]
    group = np.cumsum(head) - 1
    first = np.flatnonzero(head)
    is_old = order < m
    olds = np.bincount(group[is_old], minlength=len(first))
    news = np.diff(np.append(first, len(joint))) - olds
    rank = np.arange(len(joint)) - first[group]  # within the group
    own = olds[group]

    source = np.full(len(new), -1, dtype=np.intp)
    reuse = rank - own  # the new entry's rank among the new
    keeps = ~is_old & (reuse < own)
    source[order[keeps] - m] = order[(first[group] + own - 1 - reuse)[keeps]]

    leftover = is_old & (rank < own - np.minimum(own, news[group]))
    positions = order[leftover]
    group_first = order[first[group[leftover]]]
    stale = positions[np.lexsort((positions, group_first))]
    return source, stale


class Expansion:
    """A rule set's expansion, shared by every controller that installs it.

    Holds the :meth:`~repro.core.rules.RuleSet.expand` arrays and their
    packed row keys, and the diff against each installed key array it
    meets.  Controllers record the expansion's own key array, so
    controllers that installed the same expansion share one installed
    array and one diff: an N-shard swap expands and diffs once.
    """

    def __init__(self, ruleset: RuleSet):
        self.ruleset = ruleset
        self.arrays = ruleset.expand()
        self.keys = _row_keys(self.arrays)
        #: ``id(installed) -> (installed, source, stale)``; the array
        #: reference pins the id.
        self._diffs: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def diff(self, installed: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """:func:`_match_installed` of ``installed`` against this expansion."""
        cached = self._diffs.get(id(installed))
        if cached is None:
            cached = (installed, *_match_installed(installed, self.keys))
            self._diffs[id(installed)] = cached
        return cached[1], cached[2]


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
        self._forget()

    def _forget(self) -> None:
        """Record an empty firewall table."""
        self._deployed: Optional[RuleSet] = None
        #: Installed entries in expansion order: ids and packed row keys.
        self._entry_ids = np.empty(0, dtype=np.int64)
        self._keys = np.empty(0, dtype=np.dtype((np.void, 1)))
        #: Exclusive end position of each deployed rule's entries.
        self._rule_ends = np.empty(0, dtype=np.int64)
        #: entry id -> position, built on first use after an install.
        self._positions: Optional[Dict[int, int]] = None

    def _record(
        self,
        expansion: Expansion,
        entry_ids: np.ndarray,
    ) -> None:
        """Record what the firewall table now holds."""
        self._deployed = expansion.ruleset
        self._entry_ids = entry_ids
        self._keys = expansion.keys
        self._rule_ends = np.cumsum(expansion.arrays.counts)
        self._positions = None

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

    def _check_offsets(self, ruleset: RuleSet) -> None:
        if tuple(ruleset.offsets) != self.switch.config.key_offsets:
            raise ValueError(
                f"ruleset offsets {ruleset.offsets} != switch parser "
                f"{self.switch.config.key_offsets}"
            )

    def deploy(
        self, ruleset: RuleSet, *, expansion: Optional[Expansion] = None
    ) -> DeploymentReport:
        """Atomically replace the firewall contents with ``ruleset``.

        One ``clear`` and one ``add_many`` of the whole expansion
        (``expansion``, when given, is ``ruleset``'s, already made).

        Raises:
            ValueError: if the rule set's offsets don't match the switch
                parser configuration.
            TableFullError: if the expansion exceeds capacity — the
                previous deployment is restored first.
        """
        self._check_offsets(ruleset)
        table = self._ensure_table(ruleset.default_action)
        previous = self._deployed
        expansion = expansion or Expansion(ruleset)
        arrays = expansion.arrays
        table.clear()
        self._forget()
        try:
            entry_ids = table.add_many(
                arrays.values, arrays.masks, arrays.action_names(), arrays.priorities
            )
        except TableFullError:
            # Roll back to the previous rule set (or empty).
            if previous is not None:
                self.deploy(previous)
            raise
        self._record(expansion, entry_ids)
        report = ruleset.resource_report()
        return DeploymentReport(
            rules=report["rules"],
            ternary_entries=report["ternary_entries"],
            match_width_bits=report["match_width_bits"],
            tcam_bits=report["tcam_bits"],
            default_action=ruleset.default_action,
        )

    def update(
        self, ruleset: RuleSet, *, expansion: Optional[Expansion] = None
    ) -> UpdateReport:
        """Incrementally move the table to ``ruleset`` (minimal churn).

        Computes the entry-level diff against the current deployment and
        issues only the necessary removes/adds — the standard controller
        optimisation that keeps rule swaps hitless.  Falls back to a full
        :meth:`deploy` when nothing is deployed yet or the default action
        changes (which cannot be expressed as entry churn).

        The diff runs on arrays: the new expansion's packed row keys
        (value, mask, priority, action) are sorted together with the
        installed ones, and each new entry keeps an equal installed
        entry's id where one is left (the most recently listed of
        them); the installed entries no new one keeps are removed with
        one ``remove_many``, in order of each equal group's first
        installed member, then the new entries that kept nothing are
        added with one ``add_many``, in expansion order.  Entry ids,
        counter rows and tie-break order come out as the per-entry
        dict diff with one ``remove``/``add`` per entry gave them.

        ``expansion``, when given, is ``ruleset``'s
        :class:`Expansion`: controllers that installed the same
        expansion last then share its expansion and its diff.

        Raises:
            TableFullError: if the adds overflow capacity; the previous
                deployment is restored first.
        """
        if (
            self._deployed is None
            or self._deployed.default_action != ruleset.default_action
        ):
            before = len(self._entry_ids)
            self.deploy(ruleset, expansion=expansion)
            return UpdateReport(added=len(self._entry_ids), removed=before, kept=0)
        self._check_offsets(ruleset)
        table = self._ensure_table(ruleset.default_action)
        previous = self._deployed
        expansion = expansion or Expansion(ruleset)
        arrays = expansion.arrays
        source, stale = expansion.diff(self._keys)
        fresh = np.flatnonzero(source < 0)
        table.remove_many(self._entry_ids[stale])
        try:
            added = table.add_many(
                arrays.values[fresh],
                arrays.masks[fresh],
                arrays.action_names(fresh),
                arrays.priorities[fresh],
            )
        except TableFullError:
            self.deploy(previous)  # restore
            raise
        entry_ids = np.empty(len(arrays), dtype=np.int64)
        kept = source >= 0
        entry_ids[kept] = self._entry_ids[source[kept]]
        entry_ids[fresh] = added
        self._record(expansion, entry_ids)
        return UpdateReport(
            added=len(fresh),
            removed=len(stale),
            kept=len(arrays) - len(fresh),
        )

    @property
    def deployed(self) -> Optional[RuleSet]:
        return self._deployed

    def hit_counts(self) -> List[int]:
        """Per-entry packet hit counters, in install order."""
        return self.switch.table(FIREWALL_TABLE).hit_counts(self._entry_ids.tolist())

    def rule_hit_counts(self) -> List[int]:
        """Per-*rule* packet hits (entry counters aggregated per rule).

        ``expand`` emits each rule's expansion contiguously in rule
        order, so entry counters fold back onto the rules the operator
        actually wrote with one ``np.add.reduceat`` over the rules'
        first entries.
        """
        if self._deployed is None or not len(self._rule_ends):
            return []
        entry_hits = np.array(self.hit_counts(), dtype=np.int64)
        starts = np.concatenate([[0], self._rule_ends[:-1]])
        return np.add.reduceat(entry_hits, starts).tolist()

    def rule_for_entry(self, entry_id: int) -> Rule:
        """The deployed rule whose ternary expansion installed ``entry_id``.

        The inverse of the expansion :meth:`rule_hit_counts` folds over:
        the entry's install position (from an id → position map built
        on first use after each install) locates the originating rule
        by one ``np.searchsorted`` over the rules' entry ends — and
        through :attr:`Rule.provenance`, the Stage-2 tree path it
        distills from.

        Raises:
            KeyError: when ``entry_id`` is not currently installed.
        """
        if self._deployed is not None:
            if self._positions is None:
                self._positions = {
                    entry_id: position
                    for position, entry_id in enumerate(self._entry_ids.tolist())
                }
            position = self._positions.get(entry_id)
            if position is not None:
                index = int(np.searchsorted(self._rule_ends, position, side="right"))
                return self._deployed.rules[index]
        raise KeyError(f"no installed entry {entry_id}")

    def undeploy(self) -> None:
        """Remove all firewall entries (default action still applies)."""
        table = self._ensure_table(
            self._deployed.default_action if self._deployed else "allow"
        )
        table.clear()
        self._forget()
