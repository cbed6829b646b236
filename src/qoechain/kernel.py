"""Discrete-event kernel.

Time is integer milliseconds. Events dispatch in (time, seq) order where
seq is the scheduling order, so same-time ties resolve the same way every
run: measurement windows are scheduled first, then the scenario's declared
events in file order, then anything spawned while running (departures).
The scenario's fault records are queued as they are: each is its own event.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Callable

from .controller import Controller, Rejected
from .errors import InvariantViolation, TimeTravel
from .network import NetworkState, build_network
from .orchestrator import DbEntry, Orchestrator, VnfDb, audit_lifecycle
from .qoe import QoeSample
from .report import FlowSummary, SimReport
from .rng import SplitMix64
from .scenario import HostFailure, LinkDegradation, ScenarioDoc, StallInjection
from .service import ServiceCatalog, validate_forwarding_graph


@dataclass(frozen=True)
class Arrival:
    time_ms: int
    request: object


@dataclass(frozen=True)
class Departure:
    time_ms: int
    request_id: int


@dataclass(frozen=True)
class MeasureWindow:
    time_ms: int
    index: int


class EventQueue:
    """Min-heap on (time, seq); scheduling into the past is an error."""

    def __init__(self):
        self._heap: list[tuple[int, int, object]] = []
        self._seq = 0
        self.now = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, event) -> None:
        if event.time_ms < self.now:
            msg = f"event at {event.time_ms}ms scheduled at clock {self.now}ms"
            raise TimeTravel(msg)
        heapq.heappush(self._heap, (event.time_ms, self._seq, event))
        self._seq += 1

    def peek_time(self) -> int:
        return self._heap[0][0]

    def pop(self):
        time, _, event = heapq.heappop(self._heap)
        self.now = time
        return event


def run(
    doc: ScenarioDoc,
    seed: int | None = None,
    alpha: float | None = None,
    strict_debug: bool = False,
    event_hook: Callable | None = None,
) -> SimReport:
    """Execute a scenario to its horizon and return the report.

    seed and alpha override the scenario's own values. strict_debug re-runs
    the global conservation and validity audits after every event instead of
    only at the end. event_hook(event, state) is a test seam called after
    each dispatch, before the audits.
    """
    state = build_network(doc.nodes, doc.links)
    catalog = ServiceCatalog(doc.vnf_types, doc.profiles)
    policy = doc.policy
    if alpha is not None:
        policy = replace(policy, predictor_alpha=alpha)
    controller = Controller(state, catalog, doc.ela, policy)
    orchestrator = Orchestrator(controller)

    effective_seed = doc.seed if seed is None else seed
    queue = EventQueue()
    windows = doc.duration_ms // doc.window_ms
    for index in range(windows):
        queue.schedule(MeasureWindow(time_ms=(index + 1) * doc.window_ms, index=index))
    rng = SplitMix64(effective_seed)
    for request in doc.requests:
        arrival = request.arrival_ms
        if doc.arrival_jitter_ms > 0:
            span = 2 * doc.arrival_jitter_ms + 1
            arrival = max(0, arrival + rng.next_below(span) - doc.arrival_jitter_ms)
        queue.schedule(Arrival(time_ms=arrival, request=request))
    for fault in (*doc.host_failures, *doc.link_degradations, *doc.stall_injections):
        queue.schedule(fault)

    rows: list[QoeSample] = []
    measured = 0

    while queue and queue.peek_time() <= doc.duration_ms:
        event = queue.pop()
        if isinstance(event, Arrival):
            result = orchestrator.submit_request(event.request, event.time_ms)
            if not isinstance(result, Rejected):
                queue.schedule(
                    Departure(
                        time_ms=event.time_ms + event.request.holding_ms,
                        request_id=event.request.id,
                    )
                )
        elif isinstance(event, Departure):
            entry = orchestrator.db.entries.get(event.request_id)
            # A flow that already failed has nothing left to tear down.
            if entry is not None and entry.is_live:
                orchestrator.complete_request(event.request_id, event.time_ms)
        elif isinstance(event, MeasureWindow):
            samples, breaching = controller.monitor_window(
                event.index, orchestrator.db.live()
            )
            measured += 1
            rows.extend(samples)
            for sample in breaching:
                entry = orchestrator.db.entries[sample.flow_id]
                orchestrator.apply_action(controller.handle_breach(entry), event.time_ms)
        elif isinstance(event, HostFailure):
            evicted = state.fail_host(event.host)
            for action in controller.handle_host_failure(
                evicted, orchestrator.db.entries
            ):
                orchestrator.apply_action(action, event.time_ms)
        elif isinstance(event, LinkDegradation):
            state.degrade_link(event.link, event.latency_ms, event.jitter_ms, event.loss_pct)
        elif isinstance(event, StallInjection):
            controller.set_stall(event.flow, event.stall_ratio)
        else:  # pragma: no cover - the queue only ever holds the types above
            msg = f"unknown event {event!r}"
            raise InvariantViolation(msg)
        if event_hook is not None:
            event_hook(event, state)
        if strict_debug:
            _audit_or_die(state, orchestrator.db, catalog)

    _audit_or_die(state, orchestrator.db, catalog)
    lifecycle_violations = audit_lifecycle(orchestrator.db)
    if lifecycle_violations:
        raise InvariantViolation("; ".join(lifecycle_violations))
    if measured != windows:
        msg = f"measured {measured} windows, expected {windows}"
        raise InvariantViolation(msg)

    return SimReport(
        scenario_name=doc.name,
        seed=effective_seed,
        duration_ms=doc.duration_ms,
        window_ms=doc.window_ms,
        windows=windows,
        counters=orchestrator.counters(),
        flows={
            request_id: _flow_summary(entry, controller.ela.compliance_budget)
            for request_id, entry in sorted(orchestrator.db.entries.items())
        },
        rows=rows,
        db_dump=orchestrator.db.dump(),
    )


def _flow_summary(entry: DbEntry, compliance_budget: float) -> FlowSummary:
    """A flow's line in the report, read off its database entry."""
    observed = entry.windows_observed
    compliance = entry.windows_met / observed if observed else None
    return FlowSummary(
        windows_observed=observed,
        compliance=compliance,
        compliant=None if compliance is None else compliance >= compliance_budget,
        breach_windows=entry.breach_windows,
        final_status=entry.status.value,
    )


def audit_conservation(
    state: NetworkState, db: VnfDb, catalog: ServiceCatalog
) -> list[str]:
    """Cross-check residuals and graphs against the live database entries."""
    violations: list[str] = []
    expected_cpu: dict[int, int] = {}
    expected_mem: dict[int, int] = {}
    expected_bw: dict[int, int] = {}
    expected_pids: dict[tuple[int, int], int] = {}
    live = db.live()
    for entry in live:
        graph = entry.graph
        for position, (name, host_id) in enumerate(graph.placements):
            vnf = catalog.vnf(name)
            expected_cpu[host_id] = expected_cpu.get(host_id, 0) + vnf.cpu_demand
            expected_mem[host_id] = expected_mem.get(host_id, 0) + vnf.mem_demand
            expected_pids[(entry.request.id, position)] = host_id
        for link_id, kbps in graph.link_usage().items():
            expected_bw[link_id] = expected_bw.get(link_id, 0) + kbps

    for host_id in state.residual_cpu:
        node = state.nodes[host_id]
        used_cpu = node.cpu_capacity - state.residual_cpu[host_id]
        used_mem = node.mem_capacity - state.residual_mem[host_id]
        if used_cpu != expected_cpu.get(host_id, 0):
            violations.append(
                f"host {host_id}: cpu ledger says {expected_cpu.get(host_id, 0)}, "
                f"state says {used_cpu}"
            )
        if used_mem != expected_mem.get(host_id, 0):
            violations.append(
                f"host {host_id}: mem ledger says {expected_mem.get(host_id, 0)}, "
                f"state says {used_mem}"
            )
    for link_id, link in state.links.items():
        used_bw = link.bandwidth_kbps - state.residual_bw[link_id]
        if used_bw != expected_bw.get(link_id, 0):
            violations.append(
                f"link {link_id}: bandwidth ledger says {expected_bw.get(link_id, 0)}, "
                f"state says {used_bw}"
            )

    actual_pids = {pid: rec.host_id for pid, rec in state.placements.items()}
    if actual_pids != expected_pids:
        violations.append("placement registry does not match live flows")
    for entry in live:
        problems = validate_forwarding_graph(entry.graph, entry.request, state)
        for problem in problems:
            violations.append(f"flow {entry.request.id}: {problem}")
    return violations


def _audit_or_die(state, db, catalog) -> None:
    violations = audit_conservation(state, db, catalog)
    if violations:
        raise InvariantViolation("; ".join(violations))

