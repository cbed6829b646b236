"""Discrete-event kernel.

Time is integer milliseconds. Events dispatch in (time, seq) order where
seq is the scheduling order, so same-time ties resolve the same way every
run: measurement windows are scheduled first, then the scenario's requests
in id order, then its fault records, each its own event, then anything
spawned while running (departures). Each fault list is queued in value
order: host failures by (time, host), degradations by _degradation_order
and stalls by (time, flow, ratio). So at one instant one link's or one
flow's records apply in that order and the last one stands, whatever order
the file lists them in.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Callable

from .controller import Controller, Rejected
from .errors import InvariantViolation, SimulatorError
from .network import NetworkState, PathMetrics
from .orchestrator import Orchestrator, VnfDb, audit_lifecycle
from .qoe import QoeSample
from .report import SimReport
from .rng import SplitMix64
from .scenario import HostFailure, LinkDegradation, ScenarioDoc, StallInjection
from .service import ServiceCatalog, validate_forwarding_graph


_figures = attrgetter(*PathMetrics._fields)


def _degradation_order(fault: LinkDegradation) -> tuple:
    """(time, link, latency, jitter, loss), with -1 for an absent figure."""
    return (fault.time_ms, fault.link, *(-1 if f is None else f for f in _figures(fault)))


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
            raise SimulatorError(msg)
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
    strict_debug: bool = False,
    event_hook: Callable | None = None,
) -> SimReport:
    """Execute a scenario to its horizon and return the report.

    The report holds the run as it ended: the counters, the ELA's compliance
    budget, the QoE series and the database entries themselves. Nothing per
    flow is summed here: each flow's windows observed and met are counted
    off the series when summary.json is written.

    seed overrides the scenario's own seed. strict_debug re-runs the global
    conservation, validity, measurement and shared-window audits after
    every event instead of only at the end. event_hook(event, state) is a
    test seam called after each dispatch, before the audits.
    """
    state = NetworkState(doc.nodes, doc.links)
    catalog = ServiceCatalog(doc.vnf_types, doc.profiles)
    controller = Controller(state, catalog, doc.ela, doc.policy)
    orchestrator = Orchestrator(controller)

    effective_seed = doc.seed if seed is None else seed
    queue = EventQueue()
    windows = doc.duration_ms // doc.window_ms
    for index in range(windows):
        queue.schedule(MeasureWindow(time_ms=(index + 1) * doc.window_ms, index=index))
    # Arrivals are scheduled, and their jitter drawn, in request-id order,
    # so the order of the workload's records does not change the run.
    rng = SplitMix64(effective_seed)
    for request in sorted(doc.requests, key=attrgetter("id")):
        arrival = request.arrival_ms
        if doc.arrival_jitter_ms > 0:
            span = 2 * doc.arrival_jitter_ms + 1
            arrival = max(0, arrival + rng.next_below(span) - doc.arrival_jitter_ms)
        queue.schedule(Arrival(time_ms=arrival, request=request))
    for fault in (
        *sorted(doc.host_failures, key=attrgetter("time_ms", "host")),
        *sorted(doc.link_degradations, key=_degradation_order),
        *sorted(doc.stall_injections, key=attrgetter("time_ms", "flow", "stall_ratio")),
    ):
        queue.schedule(fault)

    series: list[list[QoeSample]] = []

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
            # Only an admitted request gets a departure; a flow that already
            # failed has nothing left to tear down.
            if orchestrator.db.entries[event.request_id].is_live:
                orchestrator.complete_request(event.request_id, event.time_ms)
        elif isinstance(event, MeasureWindow):
            samples, breaching = controller.monitor_window(
                event.index, orchestrator.db.live()
            )
            series.append(samples)
            for entry in breaching:
                orchestrator.apply_action(controller.handle_breach(entry), event.time_ms)
        elif isinstance(event, HostFailure):
            state.fail_host(event.host)
            for action in controller.handle_host_failure(orchestrator.db.live()):
                orchestrator.apply_action(action, event.time_ms)
        elif isinstance(event, LinkDegradation):
            state.degrade_link(event.link, event.latency_ms, event.jitter_ms, event.loss_pct)
            controller.handle_degradation(event.link, orchestrator.db.live())
        elif isinstance(event, StallInjection):
            controller.set_stall(event.flow, event.stall_ratio, orchestrator.db.live())
        else:  # pragma: no cover - the queue only ever holds the types above
            msg = f"unknown event {event!r}"
            raise InvariantViolation(msg)
        if event_hook is not None:
            event_hook(event, state)
        if strict_debug:
            _audit_or_die(controller, orchestrator.db)

    _audit_or_die(controller, orchestrator.db)
    lifecycle_violations = audit_lifecycle(orchestrator.db)
    if lifecycle_violations:
        raise InvariantViolation("; ".join(lifecycle_violations))
    if len(series) != windows:
        msg = f"measured {len(series)} windows, expected {windows}"
        raise InvariantViolation(msg)

    return SimReport(
        scenario_name=doc.name,
        seed=effective_seed,
        duration_ms=doc.duration_ms,
        window_ms=doc.window_ms,
        windows=windows,
        counters=orchestrator.counters(),
        compliance_budget=doc.ela.compliance_budget,
        series=series,
        entries=orchestrator.db.entries,
    )


def audit_conservation(
    state: NetworkState, db: VnfDb, catalog: ServiceCatalog
) -> list[str]:
    """Cross-check residuals and graphs against the live database entries."""
    violations: list[str] = []
    expected_cpu: dict[int, int] = {}
    expected_mem: dict[int, int] = {}
    expected_bw: dict[int, int] = {}
    live = db.live()
    for entry in live:
        graph = entry.graph
        for name, host_id in zip(entry.request.vnf_sequence, graph.hosts):
            vnf = catalog.vnf(name)
            expected_cpu[host_id] = expected_cpu.get(host_id, 0) + vnf.cpu_demand
            expected_mem[host_id] = expected_mem.get(host_id, 0) + vnf.mem_demand
        for segment in graph.segments:
            for link_id in segment:
                expected_bw[link_id] = expected_bw.get(link_id, 0) + graph.reserved_bw_kbps

    nodes, links = state.nodes, state.links
    for owner, resource, residual, expected, capacity in (
        ("host", "cpu", state.residual_cpu, expected_cpu, lambda i: nodes[i].cpu_capacity),
        ("host", "mem", state.residual_mem, expected_mem, lambda i: nodes[i].mem_capacity),
        ("link", "bandwidth", state.residual_bw, expected_bw, lambda i: links[i].bandwidth_kbps),
    ):
        for key, left in residual.items():
            used, held = capacity(key) - left, expected.get(key, 0)
            if used != held:
                violations.append(
                    f"{owner} {key}: {resource} ledger says {held}, state says {used}"
                )

    for entry in live:
        problems = validate_forwarding_graph(entry.graph, entry.request, state)
        for problem in problems:
            violations.append(f"flow {entry.request.id}: {problem}")
    return violations


def audit_shared_window(controller: Controller, db: VnfDb) -> list[str]:
    """Check the controller's shared window, if it holds one, against the live entries.

    A shared window stands for every window until an event drops it, so it
    must be what measuring now would give: the live entries' held samples
    in ascending request id, none below its target.
    """
    shared = controller.shared_window
    if shared is None:
        return []
    live = db.live()
    if len(shared) != len(live):
        return [f"shared window holds {len(shared)} samples for {len(live)} live flows"]
    violations: list[str] = []
    for entry, sample in zip(live, shared):
        flow_id = entry.request.id
        if entry.settled is not sample:
            violations.append(f"flow {flow_id}: shared window sample is not its held sample")
        if sample.mos < entry.request.ela_target:
            violations.append(f"flow {flow_id}: shared window sample is below target")
    return violations


def audit_measurement(controller: Controller, db: VnfDb) -> list[str]:
    """Check what monitoring holds for each live flow against measuring it again.

    Route figures must be the path metrics of the flow's current graph under
    the current link quality. A held sample must be what the next window
    would give: smoothing the current raw figures (route figures, reserved
    rate, stall level) into the carry leaves the carry unchanged, and
    scoring the carry gives the sample. Both are read off one measurement
    of a copy of the entry, taken with its route figures dropped, so the
    audit shares monitoring's formulas rather than restating them.
    """
    violations: list[str] = []
    alpha = controller.policy.predictor_alpha
    for entry in db.live():
        if entry.route is None and entry.settled is None:
            continue
        request = entry.request
        again = replace(entry, route=None)
        sample = controller._measure(again, controller.catalog.profile(request.profile), alpha)
        if entry.route is not None and entry.route != again.route:
            violations.append(f"flow {request.id}: route figures are not its graph's path metrics")
        elif entry.settled is not None and (
            again.smoothed != entry.smoothed or sample != entry.settled
        ):
            violations.append(f"flow {request.id}: held sample is not what measuring now gives")
    return violations


def _audit_or_die(controller: Controller, db: VnfDb) -> None:
    violations = audit_conservation(controller.network, db, controller.catalog)
    # Measuring reads the graphs, so only graphs that pass are measured again.
    if not violations:
        violations = audit_measurement(controller, db)
    violations += audit_shared_window(controller, db)
    if violations:
        raise InvariantViolation("; ".join(violations))

