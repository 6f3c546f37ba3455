"""How far the gateway reads its source ahead of the work it triggers.

A live source (a wall-clock-paced or re-timed stream) must never be
read past a packet that triggers work: a batch that can flush, or an
alert evaluation that is due, runs before the next packet is pulled.
``tests/golden/gateway_pulls.json`` pins that for every in-order golden
scenario at 1 and 3 shards, with no alert engine and with one evaluated
every 0.5 ms: how many packets the source had yielded at each
``Switch.process_batch`` call and at each alert evaluation.  Recorded on
the inline executor, where ``process_batch`` runs in the gateway's own
process.

Regenerate only on purpose (a deliberate semantic change)::

    PYTHONPATH=src python -m tests.test_gateway_pulls --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from unittest import mock

import pytest

from repro.dataplane.switch import Switch
from repro.serve import ServeConfig, StreamingGateway

from tests.test_gateway_golden import SCENARIOS, _SwapHook, _packets, _rules

GOLDEN = Path(__file__).parent / "golden" / "gateway_pulls.json"
ALERT_INTERVAL = 0.0005
CASES = [
    (name, shards, alerts)
    for name in SCENARIOS
    if name != "reordered"
    for shards in (1, 3)
    for alerts in (False, True)
]


class _Counted:
    """A packet list served as a live stream that counts its pulls."""

    def __init__(self, packets):
        self.packets = packets
        self.pulled = 0

    def __iter__(self):
        for packet in self.packets:
            self.pulled += 1
            yield packet


class _PullLog:
    """An alert engine that logs the pull count at each evaluation."""

    def __init__(self, source: _Counted):
        self.source = source
        self.log = []

    def evaluate(self, now):
        self.log.append(self.source.pulled)
        return []

    def finalize(self):
        pass


def pulls(name: str, n_shards: int, alerts: bool) -> dict:
    """Pull counts at every ``process_batch`` call and alert evaluation."""
    packet_kwargs, config_kwargs, swap_at = SCENARIOS[name]
    source = _Counted(_packets(**packet_kwargs))
    engine = _PullLog(source) if alerts else None
    gateway = StreamingGateway(
        _rules(seed=0),
        ServeConfig(n_shards=n_shards, **config_kwargs),
        retrain_hook=_SwapHook(swap_at) if swap_at is not None else None,
        alert_engine=engine,
        alert_interval=ALERT_INTERVAL,
    )
    batches = []
    process_batch = Switch.process_batch

    def counted(self, *args, **kwargs):
        batches.append(source.pulled)
        return process_batch(self, *args, **kwargs)

    with mock.patch.object(Switch, "process_batch", counted):
        gateway.run(source)
    return {"batches": batches, "alerts": engine.log if engine else []}


def _key(name: str, n_shards: int, alerts: bool) -> str:
    return f"{name}/{n_shards}/{'alerts' if alerts else 'quiet'}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(*case) for case in CASES)
    assert all(entry["alerts"] for key, entry in golden.items() if "/alerts" in key)


@pytest.mark.parametrize("name,n_shards,alerts", CASES)
def test_gateway_reads_no_further_than_the_golden(golden, name, n_shards, alerts):
    assert pulls(name, n_shards, alerts) == golden[_key(name, n_shards, alerts)]


if __name__ == "__main__":
    if "--write" not in sys.argv[1:]:
        sys.exit("usage: python -m tests.test_gateway_pulls --write")
    data = {_key(*case): pulls(*case) for case in CASES}
    rows = [f" {json.dumps(k)}: {json.dumps(data[k], sort_keys=True)}" for k in sorted(data)]
    GOLDEN.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(data)} cases to {GOLDEN}")
