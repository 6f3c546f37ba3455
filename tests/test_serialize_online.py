"""Tests for repro.core.serialize, controller.update, and repro.core.online."""

import json

import numpy as np
import pytest

from repro.core import DetectorConfig, TwoStageDetector
from repro.core.online import DriftMonitor, OnlineGateway
from repro.core.rules import ACTION_DROP, MatchField, Rule, RuleSet
from repro.core.serialize import (
    load_ruleset,
    ruleset_from_dict,
    ruleset_to_dict,
    save_ruleset,
)
from repro.dataplane import GatewayController
from repro.dataplane.tables import TableFullError
from repro.net.packet import Packet


def sample_ruleset():
    ruleset = RuleSet((3, 7, 12), default_action="allow")
    ruleset.add(
        Rule((MatchField(3, 10, 20), MatchField(7, 0, 0)), ACTION_DROP, priority=5)
    )
    ruleset.add(Rule((MatchField(12, 200, 255),), ACTION_DROP, priority=1, confidence=0.9))
    return ruleset


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        ruleset = sample_ruleset()
        path = tmp_path / "rules.json"
        save_ruleset(ruleset, path)
        loaded = load_ruleset(path)
        assert loaded.offsets == ruleset.offsets
        assert loaded.default_action == ruleset.default_action
        assert loaded.describe() == ruleset.describe()

    def test_roundtrip_preserves_semantics(self, tmp_path, rng):
        ruleset = sample_ruleset()
        path = tmp_path / "rules.json"
        save_ruleset(ruleset, path)
        loaded = load_ruleset(path)
        for __ in range(100):
            packet = Packet(bytes(rng.integers(0, 256, size=16, dtype=np.uint8)))
            assert loaded.action_for_packet(packet) == ruleset.action_for_packet(packet)

    def test_confidence_preserved(self):
        data = ruleset_to_dict(sample_ruleset())
        loaded = ruleset_from_dict(data)
        assert loaded.rules[-1].confidence == pytest.approx(0.9)

    def test_file_is_valid_json(self, tmp_path):
        path = tmp_path / "rules.json"
        save_ruleset(sample_ruleset(), path)
        data = json.loads(path.read_text())
        assert data["version"] == 1
        assert data["offsets"] == [3, 7, 12]

    def test_unknown_version_rejected(self):
        data = ruleset_to_dict(sample_ruleset())
        data["version"] = 99
        with pytest.raises(ValueError):
            ruleset_from_dict(data)

    def test_negative_offset_file_rejected(self, tmp_path):
        # Every key extractor refuses a negative offset, so the rule set
        # must too, before it can be deployed or served.
        ruleset = RuleSet((5, 0))
        ruleset.add(Rule((MatchField(0, 1, 1),), ACTION_DROP))
        data = ruleset_to_dict(ruleset)
        data["offsets"] = [-1, 0]
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="negative"):
            load_ruleset(path)
        with pytest.raises(ValueError, match="negative"):
            RuleSet((-1, 0))


class TestControllerUpdate:
    def test_update_computes_minimal_diff(self):
        ruleset = sample_ruleset()
        controller = GatewayController.for_ruleset(ruleset)
        controller.deploy(ruleset)
        before_entries = len(ruleset.to_ternary())
        # drop one rule, keep the other
        smaller = RuleSet(ruleset.offsets, default_action="allow")
        smaller.add(ruleset.rules[0])
        report = controller.update(smaller)
        kept_expected = ruleset.rules[0].ternary_entry_count()
        assert report.kept == kept_expected
        assert report.added == 0
        assert report.removed == before_entries - kept_expected

    def test_update_preserves_semantics(self, rng):
        ruleset = sample_ruleset()
        controller = GatewayController.for_ruleset(ruleset)
        controller.deploy(ruleset)
        modified = RuleSet(ruleset.offsets, default_action="allow")
        modified.add(ruleset.rules[0])
        modified.add(Rule((MatchField(7, 100, 110),), ACTION_DROP, priority=9))
        controller.update(modified)
        for __ in range(200):
            packet = Packet(bytes(rng.integers(0, 256, size=16, dtype=np.uint8)))
            assert (
                controller.switch.process(packet).action
                == modified.action_for_packet(packet)
            )

    def test_update_identical_is_noop(self):
        ruleset = sample_ruleset()
        controller = GatewayController.for_ruleset(ruleset)
        controller.deploy(ruleset)
        report = controller.update(ruleset)
        assert report.added == 0 and report.removed == 0
        assert report.kept == len(ruleset.to_ternary())

    def test_update_without_deploy_is_full_deploy(self):
        ruleset = sample_ruleset()
        controller = GatewayController.for_ruleset(ruleset)
        report = controller.update(ruleset)
        assert report.added == len(ruleset.to_ternary())
        assert controller.deployed is ruleset

    def test_update_default_change_redeploys(self):
        ruleset = sample_ruleset()
        controller = GatewayController.for_ruleset(ruleset)
        controller.deploy(ruleset)
        flipped = RuleSet(ruleset.offsets, default_action="drop")
        controller.update(flipped)
        assert controller.switch.process(Packet(b"\x00" * 16)).dropped

    def test_update_overflow_restores_previous(self, rng):
        ruleset = sample_ruleset()
        controller = GatewayController.for_ruleset(ruleset, table_capacity=20)
        controller.deploy(ruleset)
        big = RuleSet(ruleset.offsets, default_action="allow")
        big.add(Rule((MatchField(3, 1, 254), MatchField(7, 1, 254)), ACTION_DROP))
        with pytest.raises(TableFullError):
            controller.update(big)
        # previous rules still enforced
        packet = Packet(bytes([0, 0, 0, 15, 0, 0, 0, 0, 0, 0, 0, 0, 0]))
        assert controller.switch.process(packet).dropped

    def test_rule_hit_counts_after_update(self):
        ruleset = sample_ruleset()
        controller = GatewayController.for_ruleset(ruleset)
        controller.deploy(ruleset)
        smaller = RuleSet(ruleset.offsets, default_action="allow")
        smaller.add(ruleset.rules[0])
        controller.update(smaller)
        packet = Packet(bytes([0, 0, 0, 15] + [0] * 12))
        controller.switch.process(packet)
        assert controller.rule_hit_counts() == [1]


class TestDriftMonitor:
    def test_no_drift_on_same_distribution(self, rng):
        monitor = DriftMonitor(8, threshold=0.2)
        reference = rng.integers(0, 256, size=(500, 8))
        monitor.set_reference(reference)
        same = rng.integers(0, 256, size=(500, 8))
        assert not monitor.drifted(same)

    def test_drift_on_shifted_distribution(self, rng):
        monitor = DriftMonitor(8, threshold=0.2)
        monitor.set_reference(rng.integers(0, 128, size=(500, 8)))
        shifted = rng.integers(128, 256, size=(500, 8))
        assert monitor.drifted(shifted)

    def test_score_bounds(self, rng):
        monitor = DriftMonitor(4)
        monitor.set_reference(rng.integers(0, 256, size=(100, 4)))
        score = monitor.score(rng.integers(0, 256, size=(100, 4)))
        assert 0.0 <= score <= 1.0

    def test_unset_reference_raises(self):
        with pytest.raises(RuntimeError):
            DriftMonitor(4).score(np.zeros((1, 4)))

    def test_wrong_width_rejected(self):
        monitor = DriftMonitor(4)
        with pytest.raises(ValueError):
            monitor.set_reference(np.zeros((10, 5), dtype=int))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DriftMonitor(4, bins=0)
        with pytest.raises(ValueError):
            DriftMonitor(4, threshold=0.0)


class TestOnlineGateway:
    CONFIG = DetectorConfig(n_fields=4, selector_epochs=6, epochs=10, seed=2)

    def test_bootstrap_deploys(self, inet_dataset):
        gateway = OnlineGateway(self.CONFIG)
        gateway.bootstrap(inet_dataset.x_train, inet_dataset.y_train_binary)
        assert gateway.detector is not None
        assert gateway.controller is not None
        assert gateway.history[0].reason == "bootstrap"
        verdict = gateway.process(inet_dataset.test_packets[0])
        assert verdict.action in ("allow", "drop")

    def test_observe_before_bootstrap_raises(self, inet_dataset):
        gateway = OnlineGateway(self.CONFIG)
        with pytest.raises(RuntimeError):
            gateway.observe(inet_dataset.x_test[:10], inet_dataset.y_test_binary[:10])

    def test_no_retrain_on_same_distribution(self, inet_dataset):
        gateway = OnlineGateway(self.CONFIG, min_batch=32)
        gateway.bootstrap(inet_dataset.x_train, inet_dataset.y_train_binary)
        event = gateway.observe(
            inet_dataset.x_test[:200], inet_dataset.y_test_binary[:200]
        )
        assert event is None
        assert len(gateway.history) == 1

    def test_retrain_on_drift(self, inet_dataset, zigbee_dataset):
        gateway = OnlineGateway(self.CONFIG, min_batch=32, drift_threshold=0.15)
        gateway.bootstrap(inet_dataset.x_train, inet_dataset.y_train_binary)
        event = gateway.observe(
            zigbee_dataset.x_train[:200], zigbee_dataset.y_train_binary[:200]
        )
        assert event is not None and event.reason == "drift"
        assert event.drift_score > 0.15

    def test_small_batches_accumulate(self, inet_dataset, zigbee_dataset):
        gateway = OnlineGateway(self.CONFIG, min_batch=100, drift_threshold=0.15)
        gateway.bootstrap(inet_dataset.x_train, inet_dataset.y_train_binary)
        first = gateway.observe(
            zigbee_dataset.x_train[:40], zigbee_dataset.y_train_binary[:40]
        )
        assert first is None  # below min_batch
        second = gateway.observe(
            zigbee_dataset.x_train[40:140], zigbee_dataset.y_train_binary[40:140]
        )
        assert second is not None

    def test_force_retrain(self, inet_dataset):
        gateway = OnlineGateway(self.CONFIG)
        gateway.bootstrap(inet_dataset.x_train, inet_dataset.y_train_binary)
        event = gateway.force_retrain()
        assert event.reason == "manual"
        assert len(gateway.history) == 2
