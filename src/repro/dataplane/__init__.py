"""Programmable data plane substrate.

A behavioural-model software switch in the spirit of bmv2: a configurable
parser that slices byte offsets out of raw packets, match-action tables
(exact / ternary / range / LPM) with priorities, counters and capacity
limits, a P4-16 source generator, and a controller that installs the rule
sets produced by :mod:`repro.core` at runtime.
"""

from repro.dataplane.bmv2 import generate_bmv2_config
from repro.dataplane.compiled import (
    CompiledClassifier,
    CompiledTable,
    CompileReport,
    compile_table,
)
from repro.dataplane.controller import DeploymentReport, GatewayController, UpdateReport
from repro.dataplane.p4gen import generate_p4_program
from repro.dataplane.queueing import EgressQueue, QueueResult, simulate_queue
from repro.dataplane.stateful import RateLimitStage, StatefulGateway
from repro.dataplane.switch import Switch, SwitchConfig, Verdict, VerdictBatch
from repro.dataplane.tables import (
    BatchMatchResult,
    ExactTable,
    LpmTable,
    RangeTable,
    TableFullError,
    TernaryTable,
)

__all__ = [
    "Switch",
    "SwitchConfig",
    "Verdict",
    "VerdictBatch",
    "BatchMatchResult",
    "ExactTable",
    "TernaryTable",
    "RangeTable",
    "LpmTable",
    "TableFullError",
    "CompiledClassifier",
    "CompiledTable",
    "CompileReport",
    "compile_table",
    "GatewayController",
    "DeploymentReport",
    "UpdateReport",
    "RateLimitStage",
    "StatefulGateway",
    "EgressQueue",
    "QueueResult",
    "simulate_queue",
    "generate_p4_program",
    "generate_bmv2_config",
]
