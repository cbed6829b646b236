"""NFV orchestrator: the VNFs database and the flow lifecycle automaton.

The database is the only record of a flow: one entry per admitted request,
kept after the flow ends, holding its request, forwarding graph, lifecycle
log, whose last record is its status, and what the controller's monitoring
alone writes: the smoothing carry, the settled sample, the run of windows
below target, the route figures (the graph's path metrics) and the windows
that breached. The orchestrator turns the controller's admissions, Actions
and releases into graph and status changes, all through one guarded
transition helper, and tallies the two outcomes the lifecycle log cannot
tell apart: rejections by reason, and reroutes versus migrations. Every
other counter is derived from the entries when the report is built, and
db_dump.json is rendered from the entries themselves as report.py writes
it: nothing here builds a dump.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter

from .controller import (
    Action,
    ActionKind,
    Controller,
    Rejected,
    RejectReason,
)
from .errors import InvariantViolation, SimulatorError
from .network import PathMetrics
from .qoe import FlowSample, QoeSample
from .service import ChainRequest, ForwardingGraph


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
    # (time_ms, status entered), append-only with non-decreasing timestamps.
    # The one record of the flow's status: see status.
    log: list[tuple[int, LifecycleStatus]] = field(default_factory=list)
    # EWMA carry per metric; a repair restarts it with the new graph, so
    # the first window on a new path is taken at face value.
    smoothed: FlowSample | None = None
    # Consecutive scored windows below the target, up to the latest; it
    # carries over a new graph.
    windows_below: int = 0
    # The path metrics of the graph under the current link quality, which
    # measuring reads; None until a window measures the flow after
    # admission, a repair or a degradation on the route.
    route: PathMetrics | None = None
    # While smoothing stands still, the sample it last scored, which a
    # window takes unmeasured. A repair, a degradation on the route and a
    # new stall level drop it.
    settled: QoeSample | None = None
    # The indices of the windows that breached the ELA. The windows observed
    # and met are read off the QoE series.
    breach_windows: list[int] = field(default_factory=list)

    @property
    def status(self) -> LifecycleStatus:
        """The status the last log record entered; Requested before any."""
        return self.log[-1][1] if self.log else LifecycleStatus.REQUESTED

    @property
    def is_live(self) -> bool:
        """Whether the flow still holds resources."""
        return self.status not in TERMINAL


class VnfDb:
    """Every entry ever admitted, by request id, plus a list of the live ones.

    entries is what a run's report carries and db_dump.json is written from.
    add is the one way in and transition the one way to a terminal status,
    so together they keep the list equal to the entries that are live. Each
    membership change builds a new list, so a list handed out earlier stays
    as it was.
    """

    def __init__(self):
        self.entries: dict[int, DbEntry] = {}
        self._live: list[DbEntry] = []

    def add(self, entry: DbEntry) -> None:
        self.entries[entry.request.id] = entry
        if entry.is_live:
            live = self._live.copy()
            insort(live, entry, key=attrgetter("request.id"))
            self._live = live

    def live(self) -> list[DbEntry]:
        """Entries of flows that still hold resources, in ascending request id.

        The same list object until the next membership change; callers must
        not change it.
        """
        return self._live

    def transition(self, entry: DbEntry, to: LifecycleStatus, now: int) -> None:
        """Append entry's move to `to` at `now` to its log, which is its status."""
        status = entry.status
        if to not in LEGAL_TRANSITIONS[status]:
            msg = (
                f"request {entry.request.id}: illegal transition "
                f"{status.value} -> {to.value}"
            )
            raise InvariantViolation(msg)
        if entry.log and now < entry.log[-1][0]:
            msg = f"request {entry.request.id}: lifecycle log time went backwards"
            raise InvariantViolation(msg)
        entry.log.append((now, to))
        if to in TERMINAL:
            self._live = [other for other in self._live if other is not entry]


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
            raise SimulatorError(f"request {request.id} already submitted")
        result = self.controller.admit(request)
        if isinstance(result, Rejected):
            self.rejected[result.reason.value] += 1
            return result
        entry = DbEntry(request=request, graph=result)
        self.db.add(entry)
        self.db.transition(entry, LifecycleStatus.ACTIVE, now)
        return result

    def complete_request(self, request_id: int, now: int) -> None:
        """Tear down a flow that ran its course."""
        entry = self.db.entries.get(request_id)
        if entry is None:
            raise SimulatorError(f"unknown request {request_id}")
        if not entry.is_live:
            msg = f"request {request_id} is already {entry.status.value}"
            raise SimulatorError(msg)
        self.controller.release_flow(entry)
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
            raise SimulatorError(f"action for unknown request {action.flow_id}")
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
    """Replay every entry's log from Requested against the automaton; return violations."""
    violations: list[str] = []
    for request_id in sorted(db.entries):
        status = LifecycleStatus.REQUESTED
        last_time = None
        for time_ms, entered in db.entries[request_id].log:
            label = f"request {request_id} at {time_ms}ms"
            if entered not in LEGAL_TRANSITIONS[status]:
                violations.append(f"{label}: illegal {status.value} -> {entered.value}")
            if last_time is not None and time_ms < last_time:
                violations.append(f"{label}: timestamps not monotone")
            status = entered
            last_time = time_ms
    return violations
