"""The event schedule and whole-scenario simulation runs."""

from __future__ import annotations

import hashlib
import heapq
import importlib
import json
import math
import re
import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import count
from operator import attrgetter
from pathlib import Path
from random import Random

import pytest

from qoechain import (
    Controller,
    ForwardingGraph,
    parse_scenario,
    run,
    write_report,
)
from qoechain import kernel as kernel_module
from qoechain import routing
from qoechain.errors import InvariantViolation
from qoechain.kernel import MeasureWindow
from qoechain.network import MAX_DELAY_MS, PathMetrics
from qoechain.orchestrator import DbEntry, LifecycleStatus, VnfDb
from qoechain.qoe import QoeSample
from qoechain.report import SimReport
from qoechain.scenario import LinkDegradation, ScenarioDoc, StallInjection

from generators import (
    bench_module,
    degraded_doc,
    lowered_detour_doc,
    make_request,
    one_fault_of_each_kind,
    random_doc,
    reference_run,
    series_rows,
    written_artifacts,
    written_dump,
    written_summary,
)

ROOT = Path(__file__).parent.parent
SCENARIOS = ROOT / "scenarios"


def _load(name: str):
    doc, diagnostics = parse_scenario((SCENARIOS / name).read_text())
    assert diagnostics == []
    return doc


def _doc(payload: dict):
    doc, diagnostics = parse_scenario(json.dumps(payload))
    assert diagnostics == [], diagnostics
    return doc


def _payload() -> dict:
    """Line network, one admitted flow that departs mid-run."""
    return {
        "meta": {"name": "t", "seed": 1, "duration_ms": 3000, "window_ms": 1000},
        "network": {
            "nodes": [
                {"id": 0, "kind": "endpoint"},
                {"id": 1, "kind": "host", "cpu_capacity": 8, "mem_capacity": 8},
                {"id": 2, "kind": "endpoint"},
            ],
            "links": [
                {"id": 0, "a": 0, "b": 1, "bandwidth_mbps": 10, "latency_ms": 5},
                {"id": 1, "a": 1, "b": 2, "bandwidth_mbps": 10, "latency_ms": 5},
            ],
        },
        "catalog": {
            "vnf_types": [
                {"name": "fw", "cpu_demand": 2, "mem_demand": 2, "proc_latency_ms": 1.0}
            ]
        },
        "profiles": {
            "app_profiles": [
                {
                    "name": "video",
                    "bw_mbps": 4,
                    "delay_opt_ms": 50,
                    "delay_max_ms": 400,
                    "loss_max_pct": 5,
                    "stall_max": 0.2,
                }
            ]
        },
        "ela": {"target_mos": 3.0, "breach_windows": 2, "compliance_budget": 0.9},
        "workload": {
            "requests": [
                {
                    "id": 0,
                    "ingress": 0,
                    "egress": 2,
                    "vnfs": ["fw"],
                    "profile": "video",
                    "arrival_ms": 0,
                    "holding_ms": 1500,
                }
            ]
        },
    }


def test_empty_scenario_produces_header_only_series(tmp_path):
    report = run(_load("minimal.json"))
    assert report.windows == 1
    assert report.series == [[]]
    assert written_summary(report, tmp_path)["flows"] == {}
    assert report.counters["admitted"] == 0
    assert (tmp_path / "qoe_series.csv").read_text() == (
        "time_ms,flow_id,mos,q_bw,q_delay,q_loss,q_stall\n"
    )


def test_basic_run_holds_the_derived_steady_state(tmp_path):
    report = run(_load("basic.json"))
    assert report.windows == 10
    rows = list(series_rows(report))
    assert len(rows) == 10
    for _, row in rows:
        assert row.mos == pytest.approx(4.969387755102041, abs=1e-9)
    summary = written_summary(report, tmp_path)["flows"]["0"]
    assert summary["windows_observed"] == 10
    assert summary["compliance"] == 1.0
    assert summary["compliant"] is True
    assert summary["breach_windows"] == []
    assert summary["final_status"] == "Active"
    assert report.counters["admitted"] == 1
    assert report.counters["completed"] == 0


def test_departure_completes_the_flow(tmp_path):
    report = run(_doc(_payload()), strict_debug=True)
    assert report.counters["completed"] == 1
    flow = written_summary(report, tmp_path)["flows"]["0"]
    assert flow["final_status"] == "Completed"
    assert flow["windows_observed"] == 1
    assert [(window + 1) * report.window_ms for window, _ in series_rows(report)] == [1000]
    assert flow["compliance"] == 1.0


def test_rejected_request_is_counted_and_leaves_no_trace(tmp_path):
    payload = _payload()
    payload["profiles"]["app_profiles"].append(
        {
            "name": "fat",
            "bw_mbps": 20,
            "delay_opt_ms": 50,
            "delay_max_ms": 400,
            "loss_max_pct": 5,
            "stall_max": 0.2,
        }
    )
    payload["workload"]["requests"][0]["profile"] = "fat"
    report = run(_doc(payload), strict_debug=True)
    assert report.counters["rejected"]["NoPath"] == 1
    assert report.counters["rejected_total"] == 1
    assert report.counters["admitted"] == 0
    assert written_summary(report, tmp_path)["flows"] == {}
    assert written_dump(report, tmp_path) == []


def test_stall_injection_descends_through_the_smoother():
    payload = _payload()
    payload["workload"]["requests"][0]["holding_ms"] = 10_000
    payload["faults"] = {
        "stall_injections": [{"time_ms": 1500, "flow": 0, "stall_ratio": 0.1}]
    }
    report = run(_doc(payload))
    mos = [row.mos for _, row in series_rows(report)]
    # stall EWMA: 0, then 0.03, then 0.051 -> q_stall 1, 0.85, 0.745
    assert mos[0] == pytest.approx(5.0, abs=1e-9)
    assert mos[1] == pytest.approx(4.4, abs=1e-9)
    assert mos[2] == pytest.approx(3.98, abs=1e-9)


def test_link_degradation_applies_from_its_event_time():
    payload = _payload()
    payload["meta"]["duration_ms"] = 2000
    payload["workload"]["requests"][0]["holding_ms"] = 10_000
    payload["faults"] = {
        "link_degradations": [{"time_ms": 1500, "link": 0, "latency_ms": 300}]
    }
    doc = _doc(payload)
    report = run(doc)
    # raw delay jumps 11 -> 306; smoothed 0.3*306 + 0.7*11 = 99.5
    first, second = (row for _, row in series_rows(report))
    assert first.mos == pytest.approx(5.0, abs=1e-9)
    assert second.mos == pytest.approx(1 + 4 * (400 - 99.5) / 350, abs=1e-9)

    sharp = run(replace(doc, policy=replace(doc.policy, predictor_alpha=1.0)))
    _, second = (row for _, row in series_rows(sharp))
    assert second.mos == pytest.approx(1 + 4 * (400 - 306) / 350, abs=1e-9)


@pytest.mark.parametrize(
    "alpha,restore",
    [pytest.param(1.0, False, id="nan-at-alpha-1"), pytest.param(0.3, True, id="no-recovery")],
)
def test_no_route_figure_overflows(alpha, restore):
    # basic.json with both links degraded to 1e308 ms at 1.5 s: their sum is
    # infinite, so at alpha 1 smoothing's 0 * inf read NaN, and at 0.3 the
    # carry stayed infinite after the links came back at 3.5 s. The parser
    # refuses such a figure at its path; at the cap every figure stays
    # finite and the carry comes back down.
    payload = json.loads((SCENARIOS / "basic.json").read_text())
    payload["meta"]["duration_ms"] = 100_000
    payload["workload"]["requests"][0]["holding_ms"] = 200_000
    payload["ela"]["target_mos"] = 1.0
    payload["policy"] = {"predictor_alpha": alpha}
    faults = [{"time_ms": 1500, "link": link, "latency_ms": 1e308} for link in (0, 1)]
    if restore:
        faults += [{"time_ms": 3500, "link": link, "latency_ms": 5} for link in (0, 1)]
    payload["faults"] = {"link_degradations": faults}
    doc, diagnostics = parse_scenario(json.dumps(payload))
    assert doc is None
    assert [(item.path, item.message) for item in diagnostics] == [
        (
            f"faults.link_degradations[{link}].latency_ms",
            f"link {link}: latency_ms must be at most 1e+12",
        )
        for link in (0, 1)
    ]
    for fault in faults[:2]:
        fault["latency_ms"] = MAX_DELAY_MS
    samples = [sample for _, sample in series_rows(run(_doc(payload), strict_debug=True))]
    assert all(math.isfinite(figure) for sample in samples for figure in sample)
    assert samples[1].mos == 1.0
    if restore:
        assert samples[-1].mos == pytest.approx(samples[0].mos, abs=1e-4)


def test_a_shuffled_workload_runs_the_same(tmp_path):
    # Arrivals are listed in request-id order, so the order in which the
    # workload lists its requests changes no artifact. Every request
    # arrives at one of two instants, so ties between arrivals decide.
    rng = Random(2626)
    moved = 0
    for index in range(40):
        doc = random_doc(rng, index)
        requests = tuple(
            replace(request, arrival_ms=(0, doc.window_ms // 2)[request.id % 2])
            for request in doc.requests
        )
        doc = replace(doc, requests=requests)
        shuffled = list(doc.requests)
        rng.shuffle(shuffled)
        moved += shuffled != list(doc.requests)
        first = written_artifacts(run(doc), tmp_path / f"listed{index}")
        second = written_artifacts(
            run(replace(doc, requests=tuple(shuffled))), tmp_path / f"shuffled{index}"
        )
        assert _digests(second) == _digests(first), doc.name
    assert moved > 20


def _swapped_shuffle(rng: Random, records: list, pair: tuple) -> tuple:
    """records shuffled, with the two records of pair in the other order."""
    shuffled = list(records)
    rng.shuffle(shuffled)
    first, second = (shuffled.index(record) for record in pair)
    if first < second:
        shuffled[first], shuffled[second] = shuffled[second], shuffled[first]
    return tuple(shuffled)


def test_same_instant_faults_mean_the_same_in_any_order(tmp_path):
    # At one instant, one link degraded twice and one flow stalled twice:
    # the records apply in value order, whatever order the file lists them.
    rng = Random(6767)
    for index in range(40):
        doc = random_doc(rng, index)
        instant = rng.randrange(1000, doc.duration_ms)
        link = rng.choice(doc.links).id
        flow = rng.choice(doc.requests).id
        slow = LinkDegradation(instant, link, latency_ms=250.0, loss_pct=8.0)
        clean = LinkDegradation(instant, link, latency_ms=1.0, loss_pct=0.0)
        stalled = StallInjection(instant, flow, 0.9)
        flowing = StallInjection(instant, flow, 0.05)
        degradations = [*doc.link_degradations, slow, clean]
        stalls = [*doc.stall_injections, stalled, flowing]
        listed = replace(doc, link_degradations=tuple(degradations), stall_injections=tuple(stalls))
        requests = list(doc.requests)
        rng.shuffle(requests)
        failures = list(doc.host_failures)
        rng.shuffle(failures)
        shuffled = replace(
            listed,
            requests=tuple(requests),
            host_failures=tuple(failures),
            link_degradations=_swapped_shuffle(rng, degradations, (slow, clean)),
            stall_injections=_swapped_shuffle(rng, stalls, (stalled, flowing)),
        )
        first = written_artifacts(run(listed, strict_debug=True), tmp_path / f"listed{index}")
        second = written_artifacts(run(shuffled, strict_debug=True), tmp_path / f"shuffled{index}")
        assert _digests(second) == _digests(first), doc.name


def test_window_exactly_at_target_counts_as_compliant(tmp_path):
    # The line flow scores exactly 5.0 in every window; with the target at
    # 5.0 each window sits at target and must count as compliant.
    payload = _payload()
    request = payload["workload"]["requests"][0]
    request["ela_target"] = 5.0
    request["holding_ms"] = 10_000
    report = run(_doc(payload))
    assert [row.mos for _, row in series_rows(report)] == [5.0, 5.0, 5.0]
    summary = written_summary(report, tmp_path)["flows"]["0"]
    assert summary["windows_observed"] == 3
    assert summary["compliance"] == 1.0
    assert summary["compliant"] is True


def test_early_departure_of_the_last_flow_keeps_the_window_count(tmp_path):
    payload = _payload()
    first = payload["workload"]["requests"][0]
    first["holding_ms"] = 10_000
    payload["workload"]["requests"].append({**first, "id": 1, "holding_ms": 1500})
    report = run(_doc(payload), strict_debug=True)
    assert report.windows == payload["meta"]["duration_ms"] // payload["meta"]["window_ms"]
    flows = written_summary(report, tmp_path)["flows"]
    assert flows["0"]["windows_observed"] == 3
    assert flows["1"]["windows_observed"] == 1
    assert flows["1"]["final_status"] == "Completed"
    assert len(list(series_rows(report))) == 4


def test_the_series_holds_each_window_in_ascending_flow_id():
    # The series is written as it stands, unsorted: the kernel's order is
    # the file's (window, flow id) order.
    rng = Random(1618)
    docs = [one_fault_of_each_kind()] + [random_doc(rng, index) for index in range(300)]
    multi_flow_windows = 0
    for doc in docs:
        report = run(doc)
        assert len(report.series) == report.windows
        for samples in report.series:
            ids = [sample.flow_id for sample in samples]
            assert all(first < second for first, second in zip(ids, ids[1:]))
            multi_flow_windows += len(ids) > 1
    assert multi_flow_windows > 100


def test_the_series_streams_to_disk(tmp_path):
    # 200 flows over 300 windows with no sample repeated: a writer that
    # builds the whole file in memory peaks above the file's own size.
    flows, windows = 200, 300
    series = []
    for window in range(windows):
        samples = []
        for flow in range(flows):
            q_bw = (window * flows + flow + 1) / (flows * windows + 1)
            samples.append(QoeSample(flow, 1.0 + 4.0 * q_bw, q_bw, 1.0, 1.0, 1.0))
        series.append(samples)
    # summary.json reads each sampled flow's target off its database entry.
    entries = {
        flow: DbEntry(make_request(rid=flow, vnfs=()), ForwardingGraph((), ((),), 0))
        for flow in range(flows)
    }
    report = SimReport("streamed", 1, windows * 1000, 1000, windows, {}, 0.9, series, entries)
    tracemalloc.start()
    try:
        write_report(report, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "qoe_series.csv").stat().st_size
    assert size > 3_000_000
    assert peak < size / 2


def test_event_hook_sees_the_dispatch_order():
    names: list[str] = []
    run(_doc(_payload()), event_hook=lambda event, state: names.append(type(event).__name__))
    assert names == [
        "Arrival",
        "MeasureWindow",
        "Departure",
        "MeasureWindow",
        "MeasureWindow",
    ]


def test_a_window_builds_its_event_only_for_a_hook(monkeypatch):
    # The hook sees one MeasureWindow per window, at (i + 1) * window_ms
    # with index i. A run with no hook builds none, and writes the same.
    built: list[MeasureWindow] = []

    def counting_window(time_ms, index):
        built.append(MeasureWindow(time_ms, index))
        return built[-1]

    monkeypatch.setattr(kernel_module, "MeasureWindow", counting_window)
    doc = _doc(_payload())
    seen: list = []
    hooked = run(doc, event_hook=lambda event, state: seen.append(event))
    windows = [event for event in seen if isinstance(event, MeasureWindow)]
    assert windows == [MeasureWindow((i + 1) * doc.window_ms, i) for i in range(hooked.windows)]
    assert hooked.windows == 3 and built == windows
    built.clear()
    assert run(doc).series == hooked.series
    assert built == []


def test_a_window_precedes_every_event_at_its_instant():
    # At 2 s: the window, two arrivals, a host failure, a degradation, a
    # stall and flow 0's departure, scheduled when it arrived. Flow 1
    # departs at the 3 s horizon and is dispatched; flow 2 would depart at
    # 3.5 s and never is.
    payload = _with_second_host(_payload())
    for link in payload["network"]["links"]:
        link["bandwidth_mbps"] = 20
    first = payload["workload"]["requests"][0]
    first["holding_ms"] = 2000
    payload["workload"]["requests"] += [
        {**first, "id": 1, "arrival_ms": 2000, "holding_ms": 1000},
        {**first, "id": 2, "arrival_ms": 2000, "holding_ms": 1500},
    ]
    payload["faults"] = {
        "host_failures": [{"time_ms": 2000, "host": 3}],
        "link_degradations": [{"time_ms": 2000, "link": 0, "jitter_ms": 1.0}],
        "stall_injections": [{"time_ms": 2000, "flow": 1, "stall_ratio": 0.1}],
    }
    seen: list[tuple[int, str]] = []
    report = run(
        _doc(payload),
        strict_debug=True,
        event_hook=lambda event, state: seen.append((event.time_ms, type(event).__name__)),
    )
    assert seen == [
        (0, "Arrival"),
        (1000, "MeasureWindow"),
        (2000, "MeasureWindow"),
        (2000, "Arrival"),
        (2000, "Arrival"),
        (2000, "HostFailure"),
        (2000, "LinkDegradation"),
        (2000, "StallInjection"),
        (2000, "Departure"),
        (3000, "MeasureWindow"),
        (3000, "Departure"),
    ]
    assert [entry.status.value for entry in report.entries.values()] == [
        "Completed",
        "Completed",
        "Active",
    ]


# The id a hook's event carries, by its type's name.
_EVENT_ID = {
    "Arrival": lambda event: event.request.id,
    "Departure": attrgetter("request_id"),
    "MeasureWindow": attrgetter("index"),
    "HostFailure": attrgetter("host"),
    "LinkDegradation": attrgetter("link"),
    "StallInjection": attrgetter("flow"),
}


def _dispatched(doc: ScenarioDoc) -> tuple[list[tuple[int, str, int]], dict]:
    """The hook's (time, type, id) of each event doc's run dispatches, and its entries."""
    seen: list[tuple[int, str, int]] = []

    def hook(event, state):
        name = type(event).__name__
        seen.append((event.time_ms, name, _EVENT_ID[name](event)))

    return seen, run(doc, event_hook=hook).entries


def _heap_order(doc: ScenarioDoc, entries: dict) -> list[tuple[int, str, int]]:
    """The (time, type, id) order of a min-heap on (time, insertion count).

    The scenario's arrivals are pushed in id order, then its host failures,
    degradations and stalls, each in (time, id) order; an admitted request's
    departure, if at or before the horizon, is pushed when its arrival pops.
    entries, the run's own, say which requests were admitted. Each window
    comes before every event at its instant.
    """
    heap: list = []
    pushed = count()

    def push(time_ms: int, name: str, key: int) -> None:
        heapq.heappush(heap, (time_ms, next(pushed), name, key))

    for request in sorted(doc.requests, key=attrgetter("id")):
        push(request.arrival_ms, "Arrival", request.id)
    for name, records, key in (
        ("HostFailure", doc.host_failures, "host"),
        ("LinkDegradation", doc.link_degradations, "link"),
        ("StallInjection", doc.stall_injections, "flow"),
    ):
        for record in sorted(records, key=attrgetter("time_ms", key)):
            push(record.time_ms, name, getattr(record, key))
    holding = {request.id: request.holding_ms for request in doc.requests}
    windows = [
        ((index + 1) * doc.window_ms, "MeasureWindow", index)
        for index in range(doc.duration_ms // doc.window_ms)
    ]
    order: list[tuple[int, str, int]] = []
    while heap and heap[0][0] <= doc.duration_ms:
        time_ms, _, name, key = heapq.heappop(heap)
        while windows and windows[0][0] <= time_ms:
            order.append(windows.pop(0))
        order.append((time_ms, name, key))
        if name == "Arrival" and key in entries and time_ms + holding[key] <= doc.duration_ms:
            push(time_ms + holding[key], "Departure", key)
    return order + windows


def _crossed_departures() -> ScenarioDoc:
    """Two flows that leave together at 2 s, having arrived in the other order.

    Flow 1 arrives at 0.5 s and flow 0 at 1 s, so the heap numbers flow 1's
    departure first. Flow 2 asks for five fw instances, more CPU than the
    host has, so it is rejected, and its departure at 1 s never dispatches.
    """
    payload = _payload()
    for link in payload["network"]["links"]:
        link["bandwidth_mbps"] = 20
    first = payload["workload"]["requests"][0]
    first.update(arrival_ms=1000, holding_ms=1000)
    payload["workload"]["requests"] += [
        {**first, "id": 1, "arrival_ms": 500, "holding_ms": 1500},
        {**first, "id": 2, "vnfs": ["fw"] * 5, "arrival_ms": 0, "holding_ms": 1000},
    ]
    return _doc(payload)


def test_dispatch_order_is_the_heap_rule():
    crossed = _crossed_departures()
    seen, entries = _dispatched(crossed)
    assert sorted(entries) == [0, 1]
    assert [event for event in seen if event[1] == "Departure"] == [
        (2000, "Departure", 1),
        (2000, "Departure", 0),
    ]
    assert seen == _heap_order(crossed, entries)
    rng = Random(3838)
    docs = [random_doc(rng, index) for index in range(60)]
    docs += [degraded_doc(rng, random_doc(rng, index)) for index in range(60)]
    departures = 0
    for doc in docs:
        seen, entries = _dispatched(doc)
        assert seen == _heap_order(doc, entries), doc.name
        departures += sum(name == "Departure" for _, name, _ in seen)
    assert departures > 50


def _take_cpu(state, graph):
    state.residual_cpu[1] -= 1


def _take_mem(state, graph):
    state.residual_mem[1] -= 1


def _take_bandwidth(state, graph):
    state.residual_bw[0] -= 1


def _unknown_link(state, graph):
    graph.segments = ((99,), *graph.segments[1:])


# One corruption per branch of audit_conservation, made while the one flow
# (fw on host 1, 4 Mbps over links 0 and 1) is live.
@pytest.mark.parametrize(
    "corruption,message",
    [
        pytest.param(_take_cpu, "host 1: cpu ledger says 2, state says 3", id="cpu"),
        pytest.param(_take_mem, "host 1: mem ledger says 2, state says 3", id="mem"),
        pytest.param(
            _take_bandwidth,
            "link 0: bandwidth ledger says 4000, state says 4001",
            id="bandwidth",
        ),
        pytest.param(_unknown_link, "flow 0: segment 0: unknown link 99", id="segment"),
    ],
)
def test_strict_debug_catches_state_corruption(corruption, message, monkeypatch):
    graphs = []
    admit = Controller.admit

    def recording_admit(self, request):
        plan = admit(self, request)
        graphs.append(plan.graph)
        return plan

    monkeypatch.setattr(Controller, "admit", recording_admit)

    def corrupt(event, state):
        if isinstance(event, MeasureWindow):
            corruption(state, graphs[0])

    with pytest.raises(InvariantViolation, match=re.escape(message)):
        run(_doc(_payload()), strict_debug=True, event_hook=corrupt)


def test_the_run_replays_every_lifecycle_log_at_its_end(monkeypatch):
    # A record written past the orchestrator after window 1 is an illegal
    # move that no audit during the run reads; the final replay finds it.
    added = []
    add = VnfDb.add

    def recording_add(self, entry):
        added.append(entry)
        add(self, entry)

    def tamper(event, state):
        if isinstance(event, MeasureWindow) and event.index == 1:
            added[0].log.append((event.time_ms, LifecycleStatus.REQUESTED, None))

    monkeypatch.setattr(VnfDb, "add", recording_add)
    message = "request 0 at 2000ms: illegal Active -> Requested"
    with pytest.raises(InvariantViolation, match=re.escape(message)):
        run(_load("basic.json"), event_hook=tamper)


def test_the_shared_window_audit_sees_a_sample_below_its_target(monkeypatch):
    # basic.json's flow holds its sample from the first window, and every
    # window after it shares that window's list. Given, once admitted, a
    # target just above the held sample, the flow holds the same sample,
    # but the quiet verdict sees it below target: no window is shared, and
    # the flow breaches in every window from the second on.
    doc = _load("basic.json")
    report = run(doc, strict_debug=True)
    assert _shared_runs(report) == (doc.duration_ms // doc.window_ms - 1,) * 2
    held = report.entries[0].settled
    target = math.nextafter(held.mos, math.inf)
    added = []
    add = VnfDb.add

    def recording_add(self, entry):
        added.append(entry)
        add(self, entry)

    def raise_target(event, state):
        entry = added[0]
        if entry.request.ela_target != target:
            entry.request = replace(entry.request, ela_target=target)

    monkeypatch.setattr(VnfDb, "add", recording_add)
    report = run(doc, strict_debug=True, event_hook=raise_target)
    entry = report.entries[0]
    assert entry.settled == held and entry.status is LifecycleStatus.DEGRADED
    assert _shared_runs(report) == (0, 0)
    assert entry.breach_windows == list(range(1, len(report.series)))


def _with_second_host(payload: dict) -> dict:
    """Add host 3, a second fw host joined to both endpoints by 6 ms links.

    Its route is 2 ms slower than host 1's, so flows go to host 1 until it
    fails, and then score the same MOS on host 3.
    """
    payload["network"]["nodes"].append(
        {"id": 3, "kind": "host", "cpu_capacity": 8, "mem_capacity": 8}
    )
    payload["network"]["links"] += [
        {"id": 2, "a": 0, "b": 3, "bandwidth_mbps": 10, "latency_ms": 6},
        {"id": 3, "a": 3, "b": 2, "bandwidth_mbps": 10, "latency_ms": 6},
    ]
    return payload


def _events_after_quiet_windows():
    """Two _payload flows, held past the horizon, and each event that drops a held sample.

    An arrival at 2.5 s, a degradation on the flows' route at 4.5 s, a
    stall on flow 0 at 6.5 s and a failure of their host at 8.5 s, which
    migrates both to host 3, each come after a quiet window, and none of
    them makes a flow breach. Without smoothing, a flow settles in the
    second window after a change.
    """
    payload = _with_second_host(_payload())
    payload["meta"]["duration_ms"] = 10_000
    payload["policy"] = {"predictor_alpha": 1.0}
    first = payload["workload"]["requests"][0]
    first["holding_ms"] = 20_000
    payload["workload"]["requests"].append({**first, "id": 1, "arrival_ms": 2500})
    payload["faults"] = {
        "link_degradations": [{"time_ms": 4500, "link": 0, "latency_ms": 20}],
        "stall_injections": [{"time_ms": 6500, "flow": 0, "stall_ratio": 0.05}],
        "host_failures": [{"time_ms": 8500, "host": 1}],
    }
    return _doc(payload)


@pytest.mark.parametrize("method", ["_commit", "handle_degradation", "set_stall"])
def test_strict_debug_catches_a_shared_window_kept_past_its_event(method, monkeypatch):
    # After each call to method, the next window is built from what the
    # live flows held in the last quiet window, as if that window were kept
    # past the event. A migration's _commit (at 8.5 s), the degradation
    # (4.5 s) and the stall (6.5 s) each change what a flow is measured
    # from, so the measurement audit fails at the window after.
    doc = _events_after_quiet_windows()
    report = run(doc, strict_debug=True)
    assert (report.counters["admitted"], report.counters["migrated"]) == (2, 2)
    assert all(not entry.breach_windows for entry in report.entries.values())
    monitor, dispatch = Controller.monitor_window, getattr(Controller, method)
    held_when_quiet: dict[int, tuple] = {}
    kept = []

    def keeping(self, *args):
        dispatch(self, *args)
        kept.append(method)

    def monitor_kept(self, window_index, flows):
        if kept:
            kept.clear()
            for entry in flows:
                if entry.request.id in held_when_quiet:
                    entry.route, entry.smoothed, entry.settled = held_when_quiet[entry.request.id]
        samples, breaching, quiet = monitor(self, window_index, flows)
        if quiet:
            held_when_quiet.clear()
            for entry in flows:
                held_when_quiet[entry.request.id] = (entry.route, entry.smoothed, entry.settled)
        return samples, breaching, quiet

    windows = []

    def record(event, state):
        if isinstance(event, MeasureWindow):
            windows.append(event.index)

    monkeypatch.setattr(Controller, method, keeping)
    monkeypatch.setattr(Controller, "monitor_window", monitor_kept)
    stale = "held sample is not what measuring now gives|route figures are not its graph's"
    with pytest.raises(InvariantViolation, match=stale):
        run(doc, strict_debug=True, event_hook=record)
    after = {"_commit": 8, "handle_degradation": 4, "set_stall": 6}[method]
    assert windows == list(range(after + 1))


_FAT = {
    "name": "fat",
    "bw_mbps": 20,
    "delay_opt_ms": 50,
    "delay_max_ms": 400,
    "loss_max_pct": 5,
    "stall_max": 0.2,
}


# Each listed event kind, alone at 4.5 s after flow 0 has settled on host 1:
# what request 1 is, if there is one, and the fault records. A fat request
# finds no path and is rejected on arrival, but its departure is listed.
@pytest.mark.parametrize(
    "second,faults",
    [
        pytest.param({"arrival_ms": 4500}, {}, id="arrival"),
        pytest.param({"holding_ms": 4500}, {}, id="departure-admitted"),
        pytest.param(
            {"profile": "fat", "arrival_ms": 500, "holding_ms": 4000}, {}, id="departure-rejected"
        ),
        pytest.param(
            None,
            {"link_degradations": [{"time_ms": 4500, "link": 0, "latency_ms": 20}]},
            id="degradation-on-a-route",
        ),
        pytest.param(
            None,
            {"link_degradations": [{"time_ms": 4500, "link": 2, "latency_ms": 20}]},
            id="degradation-off-every-route",
        ),
        pytest.param(
            None,
            {"stall_injections": [{"time_ms": 4500, "flow": 0, "stall_ratio": 0.05}]},
            id="stall-live",
        ),
        pytest.param(
            {"arrival_ms": 6500},
            {"stall_injections": [{"time_ms": 4500, "flow": 1, "stall_ratio": 0.05}]},
            id="stall-not-yet-admitted",
        ),
        pytest.param(None, {"host_failures": [{"time_ms": 4500, "host": 1}]}, id="host-failure"),
    ],
)
def test_a_quiet_window_repeats_until_the_next_event(second, faults, tmp_path):
    # Windows 2 and 3 (at 3 s and 4 s) are one quiet window's list; window 4
    # comes after the event and is a new list, whether or not the event
    # touched a flow. The run writes what reference_run() writes.
    payload = _with_second_host(_payload())
    payload["meta"]["duration_ms"] = 8000
    payload["policy"] = {"predictor_alpha": 1.0}
    payload["profiles"]["app_profiles"].append(_FAT)
    first = payload["workload"]["requests"][0]
    first["holding_ms"] = 20_000
    if second is not None:
        payload["workload"]["requests"].append({**first, "id": 1, **second})
    payload["faults"] = faults
    doc = _doc(payload)
    report = run(doc, strict_debug=True)
    rejected = second is not None and second.get("profile") == "fat"
    assert report.counters["rejected_total"] == rejected
    series = report.series
    assert series[3] is series[2] and series[4] is not series[3]
    with reference_run():
        reference = run(doc, strict_debug=True)
    repeated = zip(reference.series, reference.series[1:])
    assert not any(later is earlier for earlier, later in repeated)
    assert written_artifacts(report, tmp_path / "plain") == written_artifacts(
        reference, tmp_path / "reference"
    )


def test_strict_debug_catches_a_stale_sample_in_a_repeated_window(monkeypatch):
    # basic.json's one flow holds its sample and window 5 repeats a quiet
    # window's list. A held sample overwritten there is caught at window 5,
    # though the kernel asks the controller nothing in a repeated window.
    doc = _load("basic.json")
    series = run(doc).series
    assert series[5] is series[4]
    added = []
    add = VnfDb.add

    def recording_add(self, entry):
        added.append(entry)
        add(self, entry)

    windows = []

    def tamper(event, state):
        if isinstance(event, MeasureWindow):
            windows.append(event.index)
            if event.index == 5:
                added[0].settled = added[0].settled._replace(mos=added[0].settled.mos - 0.5)

    monkeypatch.setattr(VnfDb, "add", recording_add)
    message = "flow 0: held sample is not what measuring now gives"
    with pytest.raises(InvariantViolation, match=re.escape(message)):
        run(doc, strict_debug=True, event_hook=tamper)
    assert windows == list(range(6))


def _set_stall_level_only(self, flow_id, stall_ratio, flows):
    self.stall_levels[flow_id] = stall_ratio


# Each place that drops what monitoring holds, made to drop nothing: the
# flows it touches keep their route figures and held samples, and the
# measurement audit finds them stale. The third such place,
# a repair's _restart_measurement, has its own test below.
@pytest.mark.parametrize(
    "method,no_op,message",
    [
        pytest.param(
            "handle_degradation",
            lambda self, link_id, flows: None,
            "route figures are not its graph's path metrics",
            id="degradation",
        ),
        pytest.param(
            "set_stall",
            _set_stall_level_only,
            "held sample is not what measuring now gives",
            id="stall",
        ),
    ],
)
def test_strict_debug_catches_an_event_that_drops_nothing(method, no_op, message, monkeypatch):
    monkeypatch.setattr(Controller, method, no_op)
    with pytest.raises(InvariantViolation, match=re.escape(message)):
        run(_events_after_quiet_windows(), strict_debug=True)


def test_strict_debug_catches_a_repair_that_keeps_the_old_measurement(monkeypatch):
    # The _payload flow settles on host 1 by the second window; host 1
    # fails at 2.5 s and the flow migrates to host 3, whose route is slower
    # by 2 ms. A migration that kept the held sample and the old graph's
    # route figures would share the next window on them.
    payload = _with_second_host(_payload())
    payload["meta"]["duration_ms"] = 5000
    payload["policy"] = {"predictor_alpha": 1.0}
    payload["workload"]["requests"][0]["holding_ms"] = 20_000
    payload["faults"] = {"host_failures": [{"time_ms": 2500, "host": 1}]}
    doc = _doc(payload)
    report = run(doc, strict_debug=True)
    assert report.counters["migrated"] == 1
    assert [entry.route.latency_ms for entry in report.entries.values()] == [13.0]
    # The new route scores the same MOS, so the series cannot tell; the
    # audit can.
    assert [row.mos for _, row in series_rows(report)] == [report.series[0][0].mos] * 5
    monkeypatch.setattr(Controller, "_restart_measurement", lambda self, entry: None)
    with pytest.raises(InvariantViolation, match="route figures are not its graph's path metrics"):
        run(doc, strict_debug=True)


def _shared_runs(report: SimReport) -> tuple[int, int]:
    """Windows that are the previous window's list: all, and those with samples."""
    pairs = list(zip(report.series, report.series[1:]))
    shared = [later for earlier, later in pairs if later is earlier]
    return len(shared), sum(1 for samples in shared if samples)


def test_sharing_quiet_windows_changes_no_run(tmp_path):
    # The same runs with no window shared, so every window is built flow by
    # flow: the artifacts, whose summary.json counts each flow's windows off
    # runs of shared lists, must not move.
    gen = bench_module("gen")
    rng = Random(2424)
    docs = [random_doc(rng, index) for index in range(150)]
    # fault_storm file 26 rebuilds from held samples, after faults that
    # touch no flow, a quiet window that holds flows.
    picked = [("fault_storm", index) for index in (0, 1, 2, 26)] + [("steady_monitoring", 0)]
    docs += [_doc(json.loads(gen.render(workload, 1, index))) for workload, index in picked]
    first_runs = []
    shared = nonempty = 0
    for index, doc in enumerate(docs):
        report = run(doc)
        first_runs.append(written_artifacts(report, tmp_path / f"shared-{index}"))
        counts = _shared_runs(report)
        shared, nonempty = shared + counts[0], nonempty + counts[1]
    assert nonempty > 100 and shared > nonempty
    with reference_run("shared window"):
        for index, (doc, files) in enumerate(zip(docs, first_runs)):
            second = run(doc)
            assert _shared_runs(second) == (0, 0)
            assert written_artifacts(second, tmp_path / f"unshared-{index}") == files


def _digests(artifacts: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in artifacts.items()}


def _reference_corpus() -> list[ScenarioDoc]:
    """The documents the reference run is held to.

    The bundled scenarios; one fault of each kind; the hand-built detour,
    where a floor tree kept past a lowered floor would answer the old route;
    bench files where windows repeat most (fault_storm file 26 rebuilds
    from held samples, after faults that touch no flow, a quiet window that
    holds flows); and 200 random documents whose degradations lower
    floors, reach 100% loss, set jitter or loss alone and stack on one link
    at one instant, as is checked here.
    """
    docs = [_load(path.name) for path in sorted(SCENARIOS.glob("*.json"))]
    docs += [one_fault_of_each_kind(), lowered_detour_doc()]
    gen = bench_module("gen")
    picked = [("fault_storm", index) for index in (0, 1, 2, 26)] + [("steady_monitoring", 0)]
    docs += [_doc(json.loads(gen.render(workload, 1, index))) for workload, index in picked]
    rng = Random(7)
    docs += [degraded_doc(rng, random_doc(rng, index)) for index in range(200)]
    base = {(id(doc), link.id): link.latency_ms for doc in docs for link in doc.links}
    records = [(id(doc), fault) for doc in docs for fault in doc.link_degradations]
    assert any(
        fault.latency_ms is not None and fault.latency_ms < base[key, fault.link]
        for key, fault in records
    )
    assert any(fault.loss_pct == 100.0 for _, fault in records)
    figures = PathMetrics._fields
    given = {tuple(n for n in figures if getattr(fault, n) is not None) for _, fault in records}
    assert {("jitter_ms",), ("loss_pct",)} <= given
    assert len({(key, fault.time_ms, fault.link) for key, fault in records}) < len(records)
    return docs


def test_the_reference_run_writes_what_the_shortcuts_write(monkeypatch, tmp_path):
    # Each document runs under the strict audits as it is, then inside
    # reference_run(), which takes none of the run path's shortcuts: the
    # series must be equal and the three artifacts byte-identical. Counts
    # of searches (_settle), monitoring's scorings (_measure) and shared
    # windows show that the first runs take the shortcuts and the second
    # take none.
    docs = _reference_corpus()
    counts = Counter()

    def counting(name, original):
        return lambda *args: counts.update((name,)) or original(*args)

    monkeypatch.setattr(routing, "_settle", counting("_settle", routing._settle))
    monkeypatch.setattr(Controller, "_measure", counting("_measure", Controller._measure))

    def run_all(name: str) -> tuple[list[tuple[list, dict[str, bytes]]], Counter]:
        """Each document's series and artifacts, and the counts over them all."""
        counts.clear()
        written = []
        for index, doc in enumerate(docs):
            before = counts["_measure"]
            report = run(doc, strict_debug=True)
            # One sample object per scoring, however many windows repeat it.
            samples = {id(sample) for _, sample in series_rows(report)}
            assert len(samples) == counts["_measure"] - before, doc.name
            counts["rows"] += sum(map(len, report.series))
            for earlier, later in zip(report.series, report.series[1:]):
                counts["shared"] += later is earlier
                counts["nonempty shared"] += later is earlier and bool(later)
            files = written_artifacts(report, tmp_path / f"{name}{index}")
            written.append((report.series, files))
        return written, counts.copy()

    plain, first = run_all("plain")
    with reference_run():
        reference, second = run_all("reference")
    assert first["nonempty shared"] > 100 and first["_measure"] < first["rows"]
    assert second["shared"] == 0 and second["_measure"] == second["rows"]
    assert second["_settle"] > first["_settle"]
    for doc, first_run, second_run in zip(docs, plain, reference):
        assert second_run == first_run, doc.name


def test_every_bundled_scenario_runs_clean_under_strict_audits():
    for path in sorted(SCENARIOS.glob("*.json")):
        doc, diagnostics = parse_scenario(path.read_text())
        assert diagnostics == [], (path.name, diagnostics)
        report = run(doc, strict_debug=True)
        assert report.windows == doc.duration_ms // doc.window_ms


# sha256 of each artifact of each bundled scenario, recorded from the
# unchanged simulator (relay_failure from the first simulator that moves
# relayed flows off a failed host; the db_dump.json of the three scenarios
# that repair a flow from the first that logs a repair as one record naming
# its kind). A refactor that claims the same behaviour keeps them.
GOLDEN_DIGESTS = {
    ("basic", "summary.json"): (
        "a60ed5d245276f40cd6566a8308f49563f6258d3bfaf40856b714d5723b06fd3"
    ),
    ("basic", "qoe_series.csv"): (
        "81393614d5d828a573f9b60e5fb69693f94183e0e0a7000ba09f87a24e49a657"
    ),
    ("basic", "db_dump.json"): (
        "09e14f49114e5cffb63cf789b694a5d0953b482053363264fc348503a628d8a4"
    ),
    ("feedback_reroute", "summary.json"): (
        "186044e2c2966cd256cf30bc6c74e9df7bb49d4aca10a6803c26433a3ee134d0"
    ),
    ("feedback_reroute", "qoe_series.csv"): (
        "8ea4bd95bec915ca4b033be9e4e600989b1a983dfdf6b8f7bc98165ea96d42ac"
    ),
    ("feedback_reroute", "db_dump.json"): (
        "e41e85535d22de45f7b4f935d3575d1ad2df054f791863fd5c2708081e7a9b67"
    ),
    ("greedy_gap", "summary.json"): (
        "5fa788c1acbf4042692e135df3f92f4562aa3ce3ff0726ed338ef2038dde9d53"
    ),
    ("greedy_gap", "qoe_series.csv"): (
        "b6cb14f4e20826d319cd809d3b040054963983f5a225ac0f8df6f34f7e3da9c4"
    ),
    ("greedy_gap", "db_dump.json"): (
        "1e18222dd6b9147639d4bc69e66e31300575eac040e71d89ac93fbf8343ab6b2"
    ),
    ("host_failure_migration", "summary.json"): (
        "0d1298cb465c98fa4b5293bd17744d9c03355d78fc36ffa0e8b952de74d0b0ee"
    ),
    ("host_failure_migration", "qoe_series.csv"): (
        "875c1f9a5df013c4e00f9397f0ecf0dc03d640d1881c6e29254bbec0311c449d"
    ),
    ("host_failure_migration", "db_dump.json"): (
        "732feb6c0dbd16c040ca7860b26f1f86112225296baa01e2ed892d6c6518da6d"
    ),
    ("minimal", "summary.json"): (
        "0bf1ed01867738a139047dd1e9bbdda6af8f839607208983648687fe74f9d38c"
    ),
    ("minimal", "qoe_series.csv"): (
        "37b69a5400760aa5d521492eacea7a91d4452ae3aa6ade096a2968a751a83966"
    ),
    ("minimal", "db_dump.json"): (
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"
    ),
    ("relay_failure", "summary.json"): (
        "387c564960322d99eee2df62bedb40b375f17288f6b0dc88107822f8216ed0a0"
    ),
    ("relay_failure", "qoe_series.csv"): (
        "b0e04abd4f395333dbfaf0417a86d472118ff3672703b4ecfe797158f030ae14"
    ),
    ("relay_failure", "db_dump.json"): (
        "fe4c90111f946128c06a11438b0eeb9cf964828958cd01c63552f51293090887"
    ),
}


def test_bundled_scenarios_match_golden_digests(tmp_path):
    produced = {}
    for path in sorted(SCENARIOS.glob("*.json")):
        write_report(run(_load(path.name)), tmp_path / path.stem)
        for artifact in ("summary.json", "qoe_series.csv", "db_dump.json"):
            data = (tmp_path / path.stem / artifact).read_bytes()
            produced[(path.stem, artifact)] = hashlib.sha256(data).hexdigest()
    assert produced == GOLDEN_DIGESTS


def test_every_traced_entry_point_is_an_own_attribute():
    # The benchmark's tracer swaps each entry point through owner.__dict__,
    # so a name must be defined or imported right where it is listed.
    tracer = bench_module("tracer")
    assert tracer.ENTRY_POINTS
    for name, module_name, attr_path in tracer.ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        *parents, attr = attr_path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        assert attr in owner.__dict__, (name, module_name, attr_path)
