"""NFV orchestrator: the VNFs database and the flow lifecycle automaton.

The database is the only record of a flow: one entry per admitted request,
kept after the flow ends, holding its request, forwarding graph, lifecycle
status and log, and what the controller's monitoring alone writes: the
smoothing carry, recent samples, route figures and run outcome. The
orchestrator turns the controller's admissions, Actions and releases into
graph and status changes, all through one guarded transition helper, and
tallies the two outcomes the lifecycle log cannot tell apart: rejections
by reason, and reroutes versus migrations. Every other counter is derived
from the entries when the report is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .controller import (
    Action,
    ActionKind,
    Controller,
    Rejected,
    RejectReason,
    RouteFigures,
)
from .errors import (
    AlreadyTerminal,
    DuplicateRequest,
    IllegalTransition,
    UnknownRequest,
)
from .qoe import FlowSample, QoeSample
from .scenario import dump_request
from .service import ChainRequest, ForwardingGraph
from .units import kbps_to_mbps


class LifecycleStatus(str, Enum):
    REQUESTED = "Requested"
    ACTIVE = "Active"
    DEGRADED = "Degraded"
    MIGRATING = "Migrating"
    FAILED = "Failed"
    COMPLETED = "Completed"


LEGAL_TRANSITIONS: dict[LifecycleStatus, frozenset[LifecycleStatus]] = {
    LifecycleStatus.REQUESTED: frozenset(
        {LifecycleStatus.ACTIVE, LifecycleStatus.FAILED}
    ),
    LifecycleStatus.ACTIVE: frozenset(
        {
            LifecycleStatus.DEGRADED,
            LifecycleStatus.MIGRATING,
            LifecycleStatus.COMPLETED,
            LifecycleStatus.FAILED,
        }
    ),
    LifecycleStatus.DEGRADED: frozenset(
        {
            LifecycleStatus.ACTIVE,
            LifecycleStatus.MIGRATING,
            LifecycleStatus.FAILED,
            LifecycleStatus.COMPLETED,
        }
    ),
    LifecycleStatus.MIGRATING: frozenset(
        {LifecycleStatus.ACTIVE, LifecycleStatus.FAILED}
    ),
    LifecycleStatus.FAILED: frozenset(),
    LifecycleStatus.COMPLETED: frozenset(),
}

TERMINAL = frozenset({LifecycleStatus.FAILED, LifecycleStatus.COMPLETED})


@dataclass
class DbEntry:
    request: ChainRequest
    graph: ForwardingGraph
    status: LifecycleStatus
    # (time_ms, from, to), append-only with non-decreasing timestamps.
    log: list[tuple[int, LifecycleStatus, LifecycleStatus]] = field(default_factory=list)
    # EWMA carry per metric; the controller restarts it on each new graph,
    # so the first window on a new path is taken at face value.
    smoothed: FlowSample | None = None
    # The most recent scored windows, at most the ELA's breach_windows.
    history: list[QoeSample] = field(default_factory=list)
    # The controller's figures for measuring this flow, keyed on the graph
    # object and the network's quality epoch; None until first measured.
    route: RouteFigures | None = None
    # The run outcome: windows measured, windows at or above the target,
    # and the indices of the windows that breached the ELA.
    windows_observed: int = 0
    windows_met: int = 0
    breach_windows: list[int] = field(default_factory=list)

    @property
    def is_live(self) -> bool:
        """Whether the flow still holds resources."""
        return self.status not in TERMINAL


class VnfDb:
    def __init__(self):
        self.entries: dict[int, DbEntry] = {}

    def live(self) -> list[DbEntry]:
        """Entries of flows that still hold resources, in ascending request id."""
        return [
            self.entries[request_id]
            for request_id in sorted(self.entries)
            if self.entries[request_id].is_live
        ]

    def transition(self, entry: DbEntry, to: LifecycleStatus, now: int) -> None:
        if to not in LEGAL_TRANSITIONS[entry.status]:
            msg = (
                f"request {entry.request.id}: illegal transition "
                f"{entry.status.value} -> {to.value}"
            )
            raise IllegalTransition(msg)
        if entry.log and now < entry.log[-1][0]:
            msg = f"request {entry.request.id}: lifecycle log time went backwards"
            raise IllegalTransition(msg)
        entry.log.append((now, entry.status, to))
        entry.status = to

    def dump(self) -> list[dict]:
        """JSON-ready dump of every entry, sorted by request id."""
        out = []
        for request_id in sorted(self.entries):
            entry = self.entries[request_id]
            graph = entry.graph
            # A completed flow's graph keeps the status it last ran under.
            graph_status = entry.status
            if graph_status is LifecycleStatus.COMPLETED:
                graph_status = entry.log[-1][1]
            out.append(
                {
                    "request_id": request_id,
                    "request": dump_request(entry.request),
                    "status": entry.status.value,
                    "forwarding_graph": {
                        "placements": [
                            {"vnf": name, "host": host_id}
                            for name, host_id in graph.placements
                        ],
                        "segments": [list(segment) for segment in graph.segments],
                        "reserved_bw_mbps": kbps_to_mbps(graph.reserved_bw_kbps),
                        "status": graph_status.value,
                    },
                    "lifecycle": [
                        {"time_ms": time_ms, "from": src.value, "to": dst.value}
                        for time_ms, src, dst in entry.log
                    ],
                }
            )
        return out


class Orchestrator:
    """Request intake and lifecycle management on top of the controller."""

    def __init__(self, controller: Controller):
        self.controller = controller
        self.db = VnfDb()
        self.rejected = {reason.value: 0 for reason in RejectReason}
        self.rerouted = 0
        self.migrated = 0

    def submit_request(self, request: ChainRequest, now: int) -> ForwardingGraph | Rejected:
        """Admit a new request through the controller and record it.

        Rejected requests leave no database entry; rejection is an
        admission outcome, not a lifecycle.
        """
        if request.id in self.db.entries:
            raise DuplicateRequest(f"request {request.id} already submitted")
        result = self.controller.admit(request)
        if isinstance(result, Rejected):
            self.rejected[result.reason.value] += 1
            return result
        entry = DbEntry(request=request, graph=result, status=LifecycleStatus.REQUESTED)
        self.db.entries[request.id] = entry
        self.db.transition(entry, LifecycleStatus.ACTIVE, now)
        return result

    def complete_request(self, request_id: int, now: int) -> None:
        """Tear down a flow that ran its course."""
        entry = self.db.entries.get(request_id)
        if entry is None:
            raise UnknownRequest(f"unknown request {request_id}")
        if not entry.is_live:
            msg = f"request {request_id} is already {entry.status.value}"
            raise AlreadyTerminal(msg)
        self.controller.release_flow(entry.graph)
        self.db.transition(entry, LifecycleStatus.COMPLETED, now)

    def apply_action(self, action: Action, now: int) -> DbEntry:
        """Replay a controller action onto the database.

        Reroutes and migrations pass through Migrating and land on Active,
        both logged at the same timestamp, and install the new graph.
        Marking an already-degraded flow degraded again is a no-op rather
        than a self-transition, which the automaton does not have.
        """
        entry = self.db.entries.get(action.flow_id)
        if entry is None:
            raise UnknownRequest(f"action for unknown request {action.flow_id}")
        if action.kind in (ActionKind.REROUTED, ActionKind.MIGRATED):
            self.db.transition(entry, LifecycleStatus.MIGRATING, now)
            self.db.transition(entry, LifecycleStatus.ACTIVE, now)
            entry.graph = action.new_graph
            if action.kind is ActionKind.REROUTED:
                self.rerouted += 1
            else:
                self.migrated += 1
        elif action.kind is ActionKind.MARKED_DEGRADED:
            if entry.status is not LifecycleStatus.DEGRADED:
                self.db.transition(entry, LifecycleStatus.DEGRADED, now)
        elif action.kind is ActionKind.FAILED:
            self.db.transition(entry, LifecycleStatus.FAILED, now)
        return entry

    def counters(self) -> dict:
        """Run totals: the two tallies plus what the entries' statuses show."""
        statuses = [entry.status for entry in self.db.entries.values()]
        return {
            "admitted": len(statuses),
            "rejected": dict(self.rejected),
            "rejected_total": sum(self.rejected.values()),
            "rerouted": self.rerouted,
            "migrated": self.migrated,
            "failed": statuses.count(LifecycleStatus.FAILED),
            "completed": statuses.count(LifecycleStatus.COMPLETED),
        }


def audit_lifecycle(db: VnfDb) -> list[str]:
    """Replay every entry's log against the automaton; return violations."""
    violations: list[str] = []
    for request_id in sorted(db.entries):
        entry = db.entries[request_id]
        status = LifecycleStatus.REQUESTED
        last_time = None
        for time_ms, src, dst in entry.log:
            label = f"request {request_id} at {time_ms}ms"
            if src is not status:
                violations.append(f"{label}: log jumps from {status.value} to {src.value}")
            if dst not in LEGAL_TRANSITIONS[src]:
                violations.append(f"{label}: illegal {src.value} -> {dst.value}")
            if last_time is not None and time_ms < last_time:
                violations.append(f"{label}: timestamps not monotone")
            status = dst
            last_time = time_ms
        if status is not entry.status:
            violations.append(
                f"request {request_id}: log ends at {status.value}, "
                f"entry says {entry.status.value}"
            )
    return violations
