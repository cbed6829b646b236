"""Deterministic simulator for QoE-managed service function chains."""

from .controller import (
    Action,
    ActionKind,
    Controller,
    PolicyConfig,
    Rejected,
    RejectReason,
)
from .errors import InvariantViolation, SimulatorError
from .kernel import EventQueue, audit_conservation, run
from .network import (
    LinkSpec,
    NetworkState,
    NodeKind,
    NodeSpec,
    PathMetrics,
)
from .oracle import enumerate_simple_paths, exact_embed
from .orchestrator import LifecycleStatus, Orchestrator, VnfDb, audit_lifecycle
from .qoe import (
    Ela,
    FlowSample,
    QoeSample,
    estimate_mos,
    predict_mos,
)
from .report import SimReport, write_report
from .routing import shortest_feasible_path
from .scenario import (
    Diagnostic,
    ScenarioDoc,
    load_scenario,
    parse_scenario,
    serialize_scenario,
)
from .service import (
    AppProfile,
    ChainRequest,
    ForwardingGraph,
    ServiceCatalog,
    VnfType,
    path_metrics,
    validate_forwarding_graph,
)

__all__ = [
    "Action",
    "ActionKind",
    "AppProfile",
    "ChainRequest",
    "Controller",
    "Diagnostic",
    "Ela",
    "EventQueue",
    "FlowSample",
    "ForwardingGraph",
    "InvariantViolation",
    "LifecycleStatus",
    "LinkSpec",
    "NetworkState",
    "NodeKind",
    "NodeSpec",
    "Orchestrator",
    "PathMetrics",
    "PolicyConfig",
    "QoeSample",
    "RejectReason",
    "Rejected",
    "ScenarioDoc",
    "ServiceCatalog",
    "SimReport",
    "SimulatorError",
    "VnfDb",
    "VnfType",
    "audit_conservation",
    "audit_lifecycle",
    "enumerate_simple_paths",
    "estimate_mos",
    "exact_embed",
    "load_scenario",
    "parse_scenario",
    "path_metrics",
    "predict_mos",
    "run",
    "serialize_scenario",
    "shortest_feasible_path",
    "validate_forwarding_graph",
    "write_report",
]

__version__ = "0.1.0"
