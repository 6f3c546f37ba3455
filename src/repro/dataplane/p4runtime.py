"""P4Runtime-style controller↔switch protocol.

Real deployments separate the control plane (a server) from the switch (an
agent) and speak P4Runtime over gRPC.  This module models that split
faithfully without gRPC: typed request/response messages with a JSON wire
encoding, a :class:`Channel` transporting encoded bytes (with optional
fault injection), a :class:`SwitchAgent` serving the requests against a
local :class:`~repro.dataplane.switch.Switch`, and a
:class:`RemoteController` exposing the same deploy/update surface as
:class:`~repro.dataplane.controller.GatewayController` but through the
wire.

Message semantics follow P4Runtime's batched ``WriteRequest`` with
INSERT / DELETE updates and all-or-nothing error reporting.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.rules import RuleSet, TernaryEntry
from repro.dataplane.switch import Switch, SwitchConfig
from repro.dataplane.tables import TableFullError, TernaryTable

__all__ = [
    "ProtocolError",
    "WriteRequest",
    "WriteResponse",
    "ReadRequest",
    "ReadResponse",
    "Update",
    "Channel",
    "SwitchAgent",
    "RemoteController",
]

PROTOCOL_VERSION = 1

INSERT = "INSERT"
DELETE = "DELETE"


class ProtocolError(RuntimeError):
    """Raised on malformed messages or rejected writes."""


@dataclasses.dataclass(frozen=True)
class Update:
    """One table update inside a WriteRequest."""

    kind: str  # INSERT | DELETE
    table: str
    value: Tuple[int, ...] = ()
    mask: Tuple[int, ...] = ()
    action: str = ""
    priority: int = 0
    entry_id: Optional[int] = None  # DELETE addresses entries by id

    def to_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "table": self.table,
            "value": list(self.value),
            "mask": list(self.mask),
            "action": self.action,
            "priority": self.priority,
            "entry_id": self.entry_id,
        }

    @staticmethod
    def from_dict(data: Dict) -> "Update":
        kind = data.get("kind")
        if kind not in (INSERT, DELETE):
            raise ProtocolError(f"unknown update kind {kind!r}")
        return Update(
            kind=kind,
            table=str(data["table"]),
            value=tuple(int(v) for v in data.get("value", [])),
            mask=tuple(int(v) for v in data.get("mask", [])),
            action=str(data.get("action", "")),
            priority=int(data.get("priority", 0)),
            entry_id=data.get("entry_id"),
        )


@dataclasses.dataclass(frozen=True)
class WriteRequest:
    """Batched, atomic table write."""

    updates: Tuple[Update, ...]
    election_id: int = 1

    def encode(self) -> bytes:
        return json.dumps(
            {
                "type": "write",
                "version": PROTOCOL_VERSION,
                "election_id": self.election_id,
                "updates": [u.to_dict() for u in self.updates],
            }
        ).encode("utf-8")


@dataclasses.dataclass(frozen=True)
class WriteResponse:
    """Outcome of a WriteRequest (all-or-nothing)."""

    ok: bool
    entry_ids: Tuple[int, ...] = ()
    error: str = ""

    def encode(self) -> bytes:
        return json.dumps(
            {
                "type": "write_response",
                "ok": self.ok,
                "entry_ids": list(self.entry_ids),
                "error": self.error,
            }
        ).encode("utf-8")


@dataclasses.dataclass(frozen=True)
class ReadRequest:
    """Read table state (entries + counters)."""

    table: str

    def encode(self) -> bytes:
        return json.dumps(
            {"type": "read", "version": PROTOCOL_VERSION, "table": self.table}
        ).encode("utf-8")


@dataclasses.dataclass(frozen=True)
class ReadResponse:
    """Table dump."""

    ok: bool
    entries: Tuple[Dict, ...] = ()
    error: str = ""

    def encode(self) -> bytes:
        return json.dumps(
            {
                "type": "read_response",
                "ok": self.ok,
                "entries": list(self.entries),
                "error": self.error,
            }
        ).encode("utf-8")


def decode_message(raw: bytes):
    """Decode any protocol message from wire bytes."""
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable message: {exc}") from exc
    if not isinstance(data, dict):
        raise ProtocolError(f"message is not an object: {type(data).__name__}")
    message_type = data.get("type")
    if message_type == "write":
        if data.get("version") != PROTOCOL_VERSION:
            raise ProtocolError(f"bad version {data.get('version')!r}")
        return WriteRequest(
            updates=tuple(Update.from_dict(u) for u in data.get("updates", [])),
            election_id=int(data.get("election_id", 1)),
        )
    if message_type == "write_response":
        return WriteResponse(
            ok=bool(data["ok"]),
            entry_ids=tuple(int(i) for i in data.get("entry_ids", [])),
            error=str(data.get("error", "")),
        )
    if message_type == "read":
        if data.get("version") != PROTOCOL_VERSION:
            raise ProtocolError(f"bad version {data.get('version')!r}")
        return ReadRequest(table=str(data["table"]))
    if message_type == "read_response":
        return ReadResponse(
            ok=bool(data["ok"]),
            entries=tuple(data.get("entries", [])),
            error=str(data.get("error", "")),
        )
    raise ProtocolError(f"unknown message type {message_type!r}")


class Channel:
    """Byte transport between controller and agent, with fault injection.

    Args:
        corrupt: optional hook applied to every payload (tests inject
            truncation/bit-flips here to exercise error paths).
    """

    def __init__(self, corrupt: Optional[Callable[[bytes], bytes]] = None):
        self.corrupt = corrupt
        self.requests_sent = 0
        self.bytes_sent = 0

    def call(self, agent: "SwitchAgent", payload: bytes) -> bytes:
        """Synchronous request/response round trip."""
        self.requests_sent += 1
        self.bytes_sent += len(payload)
        if self.corrupt is not None:
            payload = self.corrupt(payload)
        response = agent.serve(payload)
        self.bytes_sent += len(response)
        return response


class SwitchAgent:
    """The switch-side protocol server.

    Owns a :class:`Switch` whose firewall table it mutates on behalf of
    the remote controller.  Writes are transactional: if any update in a
    batch fails, the whole batch is rolled back before the error response
    is sent (P4Runtime's all-or-nothing contract).
    """

    def __init__(self, key_offsets: Sequence[int], *, table_capacity: int = 4096):
        self.switch = Switch(SwitchConfig(key_offsets=tuple(key_offsets)))
        self._table = TernaryTable(
            "firewall", len(key_offsets), max_entries=table_capacity
        )
        self.switch.add_table(self._table)
        self._highest_election_id = 0

    def serve(self, payload: bytes) -> bytes:
        """Handle one encoded request; always returns an encoded response."""
        try:
            message = decode_message(payload)
        except ProtocolError as exc:
            return WriteResponse(ok=False, error=str(exc)).encode()
        if isinstance(message, WriteRequest):
            return self._serve_write(message).encode()
        if isinstance(message, ReadRequest):
            return self._serve_read(message).encode()
        return WriteResponse(ok=False, error="unexpected message").encode()

    def _serve_write(self, request: WriteRequest) -> WriteResponse:
        if request.election_id < self._highest_election_id:
            return WriteResponse(
                ok=False,
                error=f"stale election id {request.election_id} "
                f"< {self._highest_election_id}",
            )
        self._highest_election_id = request.election_id
        applied: List[Tuple[str, int]] = []  # (kind, entry_id) for rollback
        entry_ids: List[int] = []
        try:
            for update in request.updates:
                if update.table != self._table.name:
                    raise ProtocolError(f"unknown table {update.table!r}")
                if update.kind == INSERT:
                    entry_id = self._table.add(
                        update.value, update.mask, update.action,
                        priority=update.priority,
                    )
                    applied.append((INSERT, entry_id))
                    entry_ids.append(entry_id)
                else:
                    if update.entry_id is None:
                        raise ProtocolError("DELETE requires entry_id")
                    self._table.remove(update.entry_id)
                    applied.append((DELETE, update.entry_id))
        except (ProtocolError, TableFullError, KeyError, ValueError) as exc:
            # All-or-nothing: undo the inserts (deletes cannot be undone
            # faithfully without snapshots, so reject batches that mix a
            # failing tail after deletes the same way P4Runtime servers do
            # — by reporting the batch failed; our controller never mixes).
            for kind, entry_id in reversed(applied):
                if kind == INSERT:
                    self._table.remove(entry_id)
            return WriteResponse(ok=False, error=f"{type(exc).__name__}: {exc}")
        return WriteResponse(ok=True, entry_ids=tuple(entry_ids))

    def _serve_read(self, request: ReadRequest) -> ReadResponse:
        if request.table != self._table.name:
            return ReadResponse(ok=False, error=f"unknown table {request.table!r}")
        records = self._table.entries()
        hits = self._table.hit_counts([record.entry_id for record in records])
        entries = tuple(
            {
                "entry_id": record.entry_id,
                "value": list(record.value),
                "mask": list(record.mask),
                "priority": record.priority,
                "action": record.action,
                "hits": count,
            }
            for record, count in zip(records, hits)
        )
        return ReadResponse(ok=True, entries=entries)


class RemoteController:
    """Controller speaking the wire protocol to a (possibly remote) agent."""

    def __init__(self, agent: SwitchAgent, *, channel: Optional[Channel] = None):
        self.agent = agent
        self.channel = channel or Channel()
        self._election_id = 1
        self._installed_ids: List[int] = []

    def _call(self, request) -> object:
        response = decode_message(self.channel.call(self.agent, request.encode()))
        return response

    def deploy(self, ruleset: RuleSet) -> int:
        """Replace the remote firewall with ``ruleset``; returns entry count.

        Issues one DELETE batch for the previous deployment and one INSERT
        batch for the new entries, each atomic on the agent side.
        """
        if tuple(ruleset.offsets) != self.agent.switch.config.key_offsets:
            raise ValueError("ruleset offsets do not match the remote parser")
        if self._installed_ids:
            deletes = tuple(
                Update(DELETE, "firewall", entry_id=entry_id)
                for entry_id in self._installed_ids
            )
            response = self._call(
                WriteRequest(deletes, election_id=self._election_id)
            )
            if not isinstance(response, WriteResponse) or not response.ok:
                raise ProtocolError(f"remote delete failed: {response}")
            self._installed_ids = []
        inserts = tuple(
            Update(
                INSERT, "firewall",
                value=entry.value, mask=entry.mask,
                action=entry.action, priority=entry.priority,
            )
            for entry in ruleset.to_ternary()
        )
        response = self._call(WriteRequest(inserts, election_id=self._election_id))
        if not isinstance(response, WriteResponse) or not response.ok:
            raise ProtocolError(f"remote insert failed: {response}")
        self._installed_ids = list(response.entry_ids)
        return len(self._installed_ids)

    def read_entries(self) -> List[Dict]:
        """Dump the remote table (entries + hit counters)."""
        response = self._call(ReadRequest("firewall"))
        if not isinstance(response, ReadResponse) or not response.ok:
            raise ProtocolError(f"remote read failed: {response}")
        return list(response.entries)

    def take_over(self) -> None:
        """Bump the election id (a new controller instance winning mastership)."""
        self._election_id += 1
