"""NFV orchestrator: the VNFs database and the flow lifecycle automaton.

The database is the only record of a flow: one entry per admitted request,
kept after the flow ends, holding its request, forwarding graph, lifecycle
log, whose last record is its status, and what the controller's monitoring
alone writes: the smoothing carry, the settled sample, the run of windows
below target, the route figures (the graph's path metrics) and the windows
that breached. The orchestrator turns the controller's admissions, Actions
and releases into graph and status changes, all through one guarded
transition helper. A repair is one record into Active that names its kind,
reroute or migration. Rejections, which leave no entry, are the one tally
kept by reason; every other counter is read off the entries when the
report is built, and db_dump.json is rendered from the entries themselves
as report.py writes it: nothing here builds a dump.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

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
    FAILED = "Failed"
    COMPLETED = "Completed"


# Only a repair, the one record with a kind, enters Active from Active or Degraded.
LEGAL_TRANSITIONS: dict[LifecycleStatus, frozenset[LifecycleStatus]] = {
    LifecycleStatus.REQUESTED: frozenset({LifecycleStatus.ACTIVE}),
    LifecycleStatus.ACTIVE: frozenset(
        {
            LifecycleStatus.ACTIVE,
            LifecycleStatus.DEGRADED,
            LifecycleStatus.COMPLETED,
            LifecycleStatus.FAILED,
        }
    ),
    LifecycleStatus.DEGRADED: frozenset(
        {LifecycleStatus.ACTIVE, LifecycleStatus.FAILED, LifecycleStatus.COMPLETED}
    ),
    LifecycleStatus.FAILED: frozenset(),
    LifecycleStatus.COMPLETED: frozenset(),
}

REPAIRS = frozenset({ActionKind.REROUTED, ActionKind.MIGRATED})

TERMINAL = frozenset({LifecycleStatus.FAILED, LifecycleStatus.COMPLETED})


@dataclass
class DbEntry:
    request: ChainRequest
    graph: ForwardingGraph
    # (time_ms, status entered, kind), append-only with non-decreasing
    # timestamps: kind is a repair's ActionKind, None on any other record.
    # The one record of the flow's status (see status) and of its repairs.
    log: list[tuple[int, LifecycleStatus, ActionKind | None]] = field(default_factory=list)
    # EWMA carry per metric; a repair restarts it with the new graph, so
    # the first window on a new path is taken at face value.
    smoothed: FlowSample | None = None
    # Consecutive scored windows below the target, up to the latest; it
    # carries over a new graph.
    windows_below: int = 0
    # The path metrics of the graph under the current link quality, which
    # measuring reads. Admission and a gated repair seed them with the
    # figures their prediction read; after a host-failure repair or a
    # degradation on the route they are None until a window measures.
    route: PathMetrics | None = None
    # While the carry is the EWMA's fixed point, the sample scored from it,
    # which a window takes unmeasured. A repair, a degradation on the route
    # and a new stall level drop it.
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
    """Every entry ever admitted, by request id, plus the live ones.

    entries is what a run's report carries and db_dump.json is written from.
    add is the one way in and transition the one way to a terminal status,
    so together they keep the live members equal to the entries that are
    live. live() sorts them into a new list at its first read after a
    membership change, so a list handed out earlier stays as it was.
    """

    def __init__(self):
        self.entries: dict[int, DbEntry] = {}
        self._members: dict[int, DbEntry] = {}
        self._live: list[DbEntry] | None = []

    def add(self, entry: DbEntry) -> None:
        self.entries[entry.request.id] = entry
        if entry.is_live:
            self._members[entry.request.id] = entry
            self._live = None

    def live(self) -> list[DbEntry]:
        """Entries of flows that still hold resources, in ascending request id.

        The same list object until the next membership change; callers must
        not change it.
        """
        if self._live is None:
            self._live = [self._members[request_id] for request_id in sorted(self._members)]
        return self._live

    def transition(
        self, entry: DbEntry, to: LifecycleStatus, now: int, kind: ActionKind | None = None
    ) -> None:
        """Append entry's move to `to` at `now`, a repair of `kind` if given, to its log."""
        status = entry.status
        if to not in LEGAL_TRANSITIONS[status]:
            msg = f"request {entry.request.id}: illegal transition {status.value} -> {to.value}"
            raise InvariantViolation(msg)
        fault = _kind_fault(status, to, kind)
        if fault is not None:
            raise InvariantViolation(f"request {entry.request.id} at {now}ms: {fault}")
        if entry.log and now < entry.log[-1][0]:
            msg = f"request {entry.request.id}: lifecycle log time went backwards"
            raise InvariantViolation(msg)
        entry.log.append((now, to, kind))
        if to in TERMINAL:
            self._members.pop(entry.request.id, None)
            self._live = None


class Orchestrator:
    """Request intake and lifecycle management on top of the controller."""

    def __init__(self, controller: Controller):
        self.controller = controller
        self.db = VnfDb()
        self.rejected = {reason.value: 0 for reason in RejectReason}

    def submit_request(self, request: ChainRequest, now: int) -> ForwardingGraph | Rejected:
        """Admit a new request through the controller and record it.

        Rejected requests leave no database entry; rejection is an
        admission outcome, not a lifecycle. An admitted flow's route figures
        are the path metrics its admission was predicted from.
        """
        if request.id in self.db.entries:
            raise SimulatorError(f"request {request.id} already submitted")
        plan = self.controller.admit(request)
        if isinstance(plan, Rejected):
            self.rejected[plan.reason.value] += 1
            return plan
        entry = DbEntry(request=request, graph=plan.graph, route=plan.route)
        self.db.add(entry)
        self.db.transition(entry, LifecycleStatus.ACTIVE, now)
        return plan.graph

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

        A reroute or migration, from Active or Degraded, is one record into
        Active that names its kind, and installs the new graph. Marking an
        already-degraded flow degraded again is a no-op: the automaton has no
        Degraded -> Degraded edge.
        """
        entry = self.db.entries.get(action.flow_id)
        if entry is None:
            raise SimulatorError(f"action for unknown request {action.flow_id}")
        if action.kind in REPAIRS:
            self.db.transition(entry, LifecycleStatus.ACTIVE, now, action.kind)
            entry.graph = action.new_graph
        elif action.kind is ActionKind.MARKED_DEGRADED:
            if entry.status is not LifecycleStatus.DEGRADED:
                self.db.transition(entry, LifecycleStatus.DEGRADED, now)
        elif action.kind is ActionKind.FAILED:
            self.db.transition(entry, LifecycleStatus.FAILED, now)
        return entry

    def counters(self) -> dict:
        """Run totals: the rejection tally plus what the entries' logs show."""
        statuses = [entry.status for entry in self.db.entries.values()]
        kinds = Counter(kind for entry in self.db.entries.values() for *_, kind in entry.log)
        return {
            "admitted": len(statuses),
            "rejected": dict(self.rejected),
            "rejected_total": sum(self.rejected.values()),
            "rerouted": kinds[ActionKind.REROUTED],
            "migrated": kinds[ActionKind.MIGRATED],
            "failed": statuses.count(LifecycleStatus.FAILED),
            "completed": statuses.count(LifecycleStatus.COMPLETED),
        }


def _kind_fault(
    status: LifecycleStatus, entered: LifecycleStatus, kind: ActionKind | None
) -> str | None:
    """What is wrong with the kind of a record on the legal edge status -> entered, if anything."""
    repair = entered is LifecycleStatus.ACTIVE and status is not LifecycleStatus.REQUESTED
    if kind is not None and not repair:
        return f"{status.value} -> {entered.value} names repair kind {kind.value}"
    if repair and kind not in REPAIRS:
        return f"repair {status.value} -> {entered.value} names no repair kind"
    return None


def audit_lifecycle(db: VnfDb) -> list[str]:
    """Replay every entry's log from Requested against the automaton; return violations."""
    violations: list[str] = []
    for request_id in sorted(db.entries):
        status = LifecycleStatus.REQUESTED
        last_time = None
        for time_ms, entered, kind in db.entries[request_id].log:
            if entered not in LEGAL_TRANSITIONS[status]:
                fault = f"illegal {status.value} -> {entered.value}"
            else:
                fault = _kind_fault(status, entered, kind)
            if fault is not None:
                violations.append(f"request {request_id} at {time_ms}ms: {fault}")
            if last_time is not None and time_ms < last_time:
                violations.append(f"request {request_id} at {time_ms}ms: timestamps not monotone")
            status = entered
            last_time = time_ms
    return violations
