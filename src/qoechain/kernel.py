"""Discrete-event kernel.

Time is integer milliseconds. Every event is known when a run starts: the
scenario lists the arrivals and the fault records, each its own event, and
a request departs at arrival_ms + holding_ms. So run builds the schedule
once, one list stable-sorted by time, in which same-time ties keep the
list's order: arrivals in request-id order, the fault records, then the
departures in (arrival, id) order. Each fault list is in value order: host
failures by (time, host), degradations by _degradation_order and stalls by
(time, flow, ratio), so at one instant one link's or one flow's records
apply in that order and the last one stands, whatever the file's order.
Every request gets a departure, since admission is decided on arrival: a
rejected request's has no database entry to end, so it is skipped unseen
by the hook and the audits. An event after the horizon is not listed.

Measurement windows are the run's clock, not listed events: window i falls
at (i + 1) * window_ms, and the loop dispatches it whenever its time is at
or before the next listed event, so a window comes before every other
event at its instant. Only an event hook reads a window's MeasureWindow, so
one is built only when a hook is set.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable

from .controller import Controller
from .errors import InvariantViolation
from .network import NetworkState, PathMetrics
from .orchestrator import Orchestrator, VnfDb, audit_lifecycle
from .qoe import QoeSample
from .report import SimReport
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


def _schedule(doc: ScenarioDoc) -> list:
    """Every event of doc's run but its windows, up to the horizon, in dispatch order."""
    requests = sorted(doc.requests, key=attrgetter("id"))
    leaving = sorted(requests, key=attrgetter("arrival_ms"))  # stable: id order at a tie
    events = [
        *(Arrival(request.arrival_ms, request) for request in requests),
        *sorted(doc.host_failures, key=attrgetter("time_ms", "host")),
        *sorted(doc.link_degradations, key=_degradation_order),
        *sorted(doc.stall_injections, key=attrgetter("time_ms", "flow", "stall_ratio")),
        *(Departure(r.arrival_ms + r.holding_ms, r.id) for r in leaving),
    ]
    schedule = [event for event in events if event.time_ms <= doc.duration_ms]
    schedule.sort(key=attrgetter("time_ms"))
    return schedule


def run(
    doc: ScenarioDoc,
    strict_debug: bool = False,
    event_hook: Callable | None = None,
) -> SimReport:
    """Execute a scenario to its horizon and return the report.

    The report holds the run as it ended: the counters, the ELA's compliance
    budget, the QoE series and the database entries themselves. Nothing per
    flow is summed here: each flow's windows observed and met are counted
    off the series when summary.json is written. Nothing is drawn at
    random: the run is a function of doc alone, and the report's seed is
    doc's meta seed, which only names the seed the file was generated with.

    strict_debug re-runs the global conservation, validity, measurement and
    shared-window audits after every event instead of only at the end.
    event_hook(event, state) is a test seam called after each dispatch,
    before the audits. Each window is handed to it as a MeasureWindow of
    its time and index, built for the hook alone: a run without a hook
    builds none.
    """
    state = NetworkState(doc.nodes, doc.links)
    catalog = ServiceCatalog(doc.vnf_types, doc.profiles)
    controller = Controller(state, catalog, doc.ela, doc.policy)
    orchestrator = Orchestrator(controller)

    pending = _schedule(doc)[::-1]  # the next event last
    windows = doc.duration_ms // doc.window_ms
    series: list[list[QoeSample]] = []

    index = 0  # the next window's
    while True:
        window_at = (index + 1) * doc.window_ms
        if index < windows and (not pending or window_at <= pending[-1].time_ms):
            event = MeasureWindow(window_at, index) if event_hook is not None else None
            samples, breaching = controller.monitor_window(index, orchestrator.db.live())
            series.append(samples)
            for entry in breaching:
                orchestrator.apply_action(controller.handle_breach(entry), window_at)
            index += 1
        elif pending:
            event = pending.pop()
            if isinstance(event, Arrival):
                orchestrator.submit_request(event.request, event.time_ms)
            elif isinstance(event, Departure):
                entry = orchestrator.db.entries.get(event.request_id)
                if entry is None:  # rejected on arrival: no flow to end
                    continue
                # A flow that already failed has nothing left to tear down.
                if entry.is_live:
                    orchestrator.complete_request(event.request_id, event.time_ms)
            elif isinstance(event, HostFailure):
                state.fail_host(event.host)
                for action in controller.handle_host_failure(orchestrator.db.live()):
                    orchestrator.apply_action(action, event.time_ms)
            elif isinstance(event, LinkDegradation):
                state.degrade_link(event.link, event.latency_ms, event.jitter_ms, event.loss_pct)
                controller.handle_degradation(event.link, orchestrator.db.live())
            elif isinstance(event, StallInjection):
                controller.set_stall(event.flow, event.stall_ratio, orchestrator.db.entries)
            else:  # pragma: no cover - the schedule holds only the types above
                msg = f"unknown event {event!r}"
                raise InvariantViolation(msg)
        else:
            break
        if event_hook is not None:
            event_hook(event, state)
        if strict_debug:
            _audit_or_die(controller, orchestrator.db)

    _audit_or_die(controller, orchestrator.db)
    lifecycle_violations = audit_lifecycle(orchestrator.db)
    if lifecycle_violations:
        raise InvariantViolation("; ".join(lifecycle_violations))

    return SimReport(
        scenario_name=doc.name,
        seed=doc.seed,
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

    for owner, resource, residual, expected in (
        ("host", "cpu", state.residual_cpu, expected_cpu),
        ("host", "mem", state.residual_mem, expected_mem),
        ("link", "bandwidth", state.residual_bw, expected_bw),
    ):
        capacity = state.capacity[resource]
        for key, left in residual.items():
            used, held = capacity[key] - left, expected.get(key, 0)
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
    scoring the carry gives the sample. Both are read off the controller's
    own measurement step, taken on freshly computed route figures and
    writing nothing, so the audit shares monitoring's formulas rather than
    restating them.
    """
    violations: list[str] = []
    alpha = controller.policy.predictor_alpha
    for entry in db.live():
        if entry.route is None and entry.settled is None:
            continue
        request = entry.request
        route = controller.route_of(entry)
        if entry.route is not None and entry.route != route:
            violations.append(f"flow {request.id}: route figures are not its graph's path metrics")
        elif entry.settled is not None:
            profile = controller.catalog.profile(request.profile)
            smoothed, sample, _ = controller.measurement(entry, route, profile, alpha)
            if smoothed != entry.smoothed or sample != entry.settled:
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

