"""Deterministic instance builders and test drivers shared across the suite.

Every random builder takes an explicit random.Random so each test pins its
own seed; the suite never consumes global RNG state.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib.util
import json
from pathlib import Path
from random import Random
from typing import Iterator

from qoechain import (
    AppProfile,
    ChainRequest,
    Controller,
    Ela,
    LinkSpec,
    NetworkState,
    NodeKind,
    NodeSpec,
    Orchestrator,
    PathMetrics,
    PolicyConfig,
    Rejected,
    ServiceCatalog,
    VnfType,
    parse_scenario,
    write_report,
)
from qoechain import controller as controller_module
from qoechain import routing
from qoechain.orchestrator import DbEntry
from qoechain.qoe import FlowSample, QoeSample
from qoechain.report import SimReport
from qoechain.scenario import (
    HostFailure,
    LinkDegradation,
    ScenarioDoc,
    StallInjection,
)

SCENARIOS = Path(__file__).parent.parent / "scenarios"
BENCH = Path(__file__).parent.parent / "bench"


def bench_module(name: str):
    """bench/<name>.py, loaded by path: bench/ is not a package."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_profile(
    name: str = "video",
    bw_kbps: int = 4000,
    delay_opt: float = 50.0,
    delay_max: float = 400.0,
    loss_max: float = 5.0,
    stall_max: float = 0.2,
) -> AppProfile:
    return AppProfile(name, bw_kbps, delay_opt, delay_max, loss_max, stall_max)


def make_request(
    rid: int = 0,
    ingress: int = 0,
    egress: int = 2,
    vnfs: tuple[str, ...] = ("fw",),
    profile: str = "video",
    target: float = 3.0,
    arrival: int = 0,
    holding: int = 10_000,
) -> ChainRequest:
    return ChainRequest(rid, ingress, egress, vnfs, profile, target, arrival, holding)


def line_network() -> NetworkState:
    """endpoint 0 -- host 1 -- endpoint 2, generous resources."""
    nodes = [
        NodeSpec(0, NodeKind.ENDPOINT),
        NodeSpec(1, NodeKind.HOST, cpu_capacity=8, mem_capacity=8),
        NodeSpec(2, NodeKind.ENDPOINT),
    ]
    links = [
        LinkSpec(0, 0, 1, bandwidth_kbps=10_000, latency_ms=5.0),
        LinkSpec(1, 1, 2, bandwidth_kbps=10_000, latency_ms=5.0),
    ]
    return NetworkState(nodes, links)


def square_network() -> NetworkState:
    """Two endpoints and two hosts in a symmetric square, all links 5 ms."""
    nodes = [
        NodeSpec(0, NodeKind.ENDPOINT),
        NodeSpec(1, NodeKind.HOST, cpu_capacity=4, mem_capacity=4),
        NodeSpec(2, NodeKind.HOST, cpu_capacity=4, mem_capacity=4),
        NodeSpec(3, NodeKind.ENDPOINT),
    ]
    links = [
        LinkSpec(0, 0, 1, bandwidth_kbps=10_000, latency_ms=5.0),
        LinkSpec(1, 0, 2, bandwidth_kbps=10_000, latency_ms=5.0),
        LinkSpec(2, 1, 3, bandwidth_kbps=10_000, latency_ms=5.0),
        LinkSpec(3, 2, 3, bandwidth_kbps=10_000, latency_ms=5.0),
    ]
    return NetworkState(nodes, links)


def parallel_pair(latencies=(10.0, 12.0), bw=10_000) -> NetworkState:
    """Endpoints 0 and 1 joined by one link per latency, in link-id order."""
    nodes = [NodeSpec(0, NodeKind.ENDPOINT), NodeSpec(1, NodeKind.ENDPOINT)]
    links = [
        LinkSpec(i, 0, 1, bandwidth_kbps=bw, latency_ms=lat)
        for i, lat in enumerate(latencies)
    ]
    return NetworkState(nodes, links)


def pair_catalog(**profile_kwargs) -> ServiceCatalog:
    """No VNF types and one profile named stream."""
    return ServiceCatalog([], [make_profile(name="stream", **profile_kwargs)])


def snapshot(net: NetworkState) -> tuple:
    """Equality-comparable picture of a network's whole mutable state.

    The floor is part of it: its figures, and which sources hold a tree.
    """
    return (
        tuple(sorted(net.residual_cpu.items())),
        tuple(sorted(net.residual_mem.items())),
        tuple(sorted(net.residual_bw.items())),
        tuple(sorted(net.failed_hosts)),
        tuple(sorted(net.quality.items())),
        tuple(sorted(net.floor.quality.items())),
        tuple(sorted(net.floor.trees)),
    )


def small_catalog() -> ServiceCatalog:
    vnfs = [
        VnfType("fw", cpu_demand=2, mem_demand=2, proc_latency_ms=1.0),
        VnfType("nat", cpu_demand=1, mem_demand=1, proc_latency_ms=2.0),
    ]
    return ServiceCatalog(vnfs, [make_profile()])


def random_profile(rng: Random, name: str = "p") -> AppProfile:
    delay_opt = round(rng.uniform(0.0, 80.0), 1)
    delay_max = delay_opt + round(rng.uniform(10.0, 400.0), 1)
    return AppProfile(
        name,
        bw_req_kbps=round(rng.uniform(500, 8000)),
        delay_opt_ms=delay_opt,
        delay_max_ms=delay_max,
        loss_max_pct=round(rng.uniform(0.5, 20.0), 2),
        stall_max=round(rng.uniform(0.05, 1.0), 3),
    )


def random_sample(rng: Random, flow_id: int = 0) -> FlowSample:
    return FlowSample(
        flow_id=flow_id,
        throughput_mbps=round(rng.uniform(0.0, 12.0), 3),
        delay_ms=round(rng.uniform(0.0, 600.0), 2),
        jitter_ms=round(rng.uniform(0.0, 60.0), 2),
        loss_pct=round(rng.uniform(0.0, 30.0), 2),
        stall_ratio=round(rng.uniform(0.0, 1.0), 3),
    )


def random_network(
    rng: Random,
    n_endpoints: int = 2,
    n_hosts: int = 3,
    n_switches: int = 1,
    extra_links: int = 3,
    bw_mbps_range: tuple[int, int] = (2, 10),
    latency_choices: tuple[float, ...] | None = None,
) -> NetworkState:
    """A connected random substrate: spanning tree plus a few extra links.

    With latency_choices set, each link's latency is drawn from it instead
    of from a continuous range, so equal-latency paths become common.
    """
    nodes: list[NodeSpec] = []
    node_id = 0
    for _ in range(n_endpoints):
        nodes.append(NodeSpec(node_id, NodeKind.ENDPOINT))
        node_id += 1
    for _ in range(n_hosts):
        nodes.append(
            NodeSpec(
                node_id,
                NodeKind.HOST,
                cpu_capacity=rng.randint(2, 8),
                mem_capacity=rng.randint(2, 8),
            )
        )
        node_id += 1
    for _ in range(n_switches):
        nodes.append(NodeSpec(node_id, NodeKind.SWITCH))
        node_id += 1

    order = [node.id for node in nodes]
    rng.shuffle(order)
    links: list[LinkSpec] = []

    def add_link(a: int, b: int) -> None:
        links.append(
            LinkSpec(
                id=len(links),
                a=a,
                b=b,
                bandwidth_kbps=rng.randint(*bw_mbps_range) * 1000,
                latency_ms=(
                    round(rng.uniform(1.0, 15.0), 1)
                    if latency_choices is None
                    else rng.choice(latency_choices)
                ),
                jitter_ms=round(rng.uniform(0.0, 3.0), 1),
                loss_pct=round(rng.uniform(0.0, 2.0), 2),
            )
        )

    for index in range(1, len(order)):
        add_link(order[index], rng.choice(order[:index]))
    for _ in range(extra_links):
        a, b = rng.sample(order, 2)
        add_link(a, b)
    return NetworkState(nodes, links)


def random_catalog(rng: Random, n_vnfs: int = 3, n_profiles: int = 2) -> ServiceCatalog:
    vnfs = [
        VnfType(
            f"vnf{i}",
            cpu_demand=rng.randint(1, 3),
            mem_demand=rng.randint(1, 3),
            proc_latency_ms=round(rng.uniform(0.0, 5.0), 1),
        )
        for i in range(n_vnfs)
    ]
    profiles = [random_profile(rng, f"p{i}") for i in range(n_profiles)]
    return ServiceCatalog(vnfs, profiles)


def random_request(
    rng: Random,
    rid: int,
    net: NetworkState,
    catalog: ServiceCatalog,
    target: float | None = None,
    max_chain: int = 2,
) -> ChainRequest:
    endpoints = [
        node.id for node in net.nodes.values() if node.kind is NodeKind.ENDPOINT
    ]
    ingress, egress = rng.sample(endpoints, 2)
    chain = tuple(
        rng.choice(sorted(catalog.vnf_types))
        for _ in range(rng.randint(0, max_chain))
    )
    return ChainRequest(
        id=rid,
        ingress=ingress,
        egress=egress,
        vnf_sequence=chain,
        profile=rng.choice(sorted(catalog.profiles)),
        ela_target=rng.uniform(1.0, 4.0) if target is None else target,
        arrival_ms=0,
        holding_ms=10_000,
    )


def fail_and_repair(orchestrator, host_id: int, now: int = 0) -> list:
    """Fail a host, let the controller repair, and record its actions."""
    controller = orchestrator.controller
    controller.network.fail_host(host_id)
    actions = controller.handle_host_failure(orchestrator.db.live())
    for action in actions:
        orchestrator.apply_action(action, now)
    return actions


def degrade_and_refresh(orchestrator, link_id: int, **figures) -> None:
    """Degrade a link and hand the change to the controller, as the kernel does."""
    controller = orchestrator.controller
    controller.network.degrade_link(link_id, **figures)
    controller.handle_degradation(link_id, orchestrator.db.live())


SHORTCUTS = ("floor answers", "held samples", "shared window", "route figures")


@contextlib.contextmanager
def reference_run(*shortcuts: str) -> Iterator[None]:
    """Inside it, a run takes none of the run path's exact shortcuts.

    Each is swapped for the plain computation, so a run inside must write
    what the same run outside writes:
    - floor answers: `controller.floor_tier` returns None and
      `routing._clean` False, so every path and placement query searches;
    - held samples and the shared window: `DbEntry.settled` and
      `Controller.shared_window` read None and ignore writes, so every flow
      is scored in every window and report.py is handed no shared list;
    - route figures seeded by the MOS gate or held from a window before:
      `Controller._measure` clears the entry's route before it measures.
    Given names from SHORTCUTS, only those are swapped, so each can be held
    to the plain run alone. Windows outside the event heap have no plain
    form to swap in; test_a_window_precedes_every_event_at_its_instant
    covers them. The swaps are undone on exit, and no pytest is needed, so
    a script can use it too.
    """
    unknown = set(shortcuts) - set(SHORTCUTS)
    if unknown:
        raise ValueError(f"no such shortcut: {sorted(unknown)}")
    never = property(lambda owner: None, lambda owner, value: None)
    measure = Controller._measure

    def measure_afresh(self, entry, profile, alpha):
        entry.route = None
        return measure(self, entry, profile, alpha)

    swaps = {
        "floor answers": (
            (controller_module, "floor_tier", lambda *args: None),
            (routing, "_clean", lambda *args: False),
        ),
        "held samples": ((DbEntry, "settled", never),),
        "shared window": ((Controller, "shared_window", never),),
        "route figures": ((Controller, "_measure", measure_afresh),),
    }
    with contextlib.ExitStack() as undo:
        for shortcut in shortcuts or SHORTCUTS:
            for owner, name, swap in swaps[shortcut]:
                if name in vars(owner):
                    undo.callback(setattr, owner, name, vars(owner)[name])
                else:
                    undo.callback(delattr, owner, name)
                setattr(owner, name, swap)
        yield


def written_artifacts(report: SimReport, out_dir: Path) -> dict[str, bytes]:
    """Write report's artifacts to out_dir and read back each file's bytes, by name."""
    write_report(report, out_dir)
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


def written_dump(report: SimReport, out_dir: Path) -> list[dict]:
    """Write report's artifacts to out_dir and read its db_dump.json back."""
    write_report(report, out_dir)
    return json.loads((out_dir / "db_dump.json").read_text(encoding="utf-8"))


def written_summary(report: SimReport, out_dir: Path) -> dict:
    """Write report's artifacts to out_dir and read its summary.json back."""
    write_report(report, out_dir)
    return json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))


def series_rows(report: SimReport) -> Iterator[tuple[int, QoeSample]]:
    """A run's QoE series as (window index, sample) rows, in qoe_series.csv order."""
    for window, samples in enumerate(report.series):
        for sample in samples:
            yield window, sample


def stalled_flow(breach_windows: int = 2, latencies=(10.0,)):
    """One unchained stream flow on a parallel pair, scored without smoothing.

    Returns its orchestrator; the flow is request 0. With every other factor
    at 1, each window's MOS is set by the stall level alone: 0.0 scores 5.0,
    0.1 exactly the target 3.0, 0.2 scores 1.0.
    """
    ela = Ela(target_mos=3.0, breach_windows=breach_windows, compliance_budget=0.9)
    controller = Controller(
        parallel_pair(latencies), pair_catalog(), ela, PolicyConfig(predictor_alpha=1.0)
    )
    orch = Orchestrator(controller)
    request = make_request(ingress=0, egress=1, vnfs=(), profile="stream", target=3.0)
    assert not isinstance(orch.submit_request(request, now=0), Rejected)
    return orch


def breach_trail(breach_windows: int, stalls) -> tuple[list[float], list[int]]:
    """Each window's MOS and the windows that breached, one window per stall."""
    orch = stalled_flow(breach_windows)
    scores, breached = [], []
    for window, stall in enumerate(stalls):
        orch.controller.set_stall(0, stall, orch.db.entries)
        samples, breaching = orch.controller.monitor_window(window, orch.db.live())
        scores.append(samples[0].mos)
        breached.extend(window for _ in breaching)
    assert orch.db.entries[0].breach_windows == breached
    return scores, breached


def one_fault_of_each_kind() -> ScenarioDoc:
    """The host-failure scenario with one link degradation and one stall added.

    Its run dispatches every event type: arrivals, a departure, measure
    windows, the host failure, the degradation and the stall.
    """
    payload = json.loads((SCENARIOS / "host_failure_migration.json").read_text())
    payload["workload"]["requests"][0]["holding_ms"] = 4000
    payload["faults"]["link_degradations"] = [{"time_ms": 1500, "link": 1, "latency_ms": 50}]
    payload["faults"]["stall_injections"] = [{"time_ms": 3500, "flow": 0, "stall_ratio": 0.1}]
    doc, diagnostics = parse_scenario(json.dumps(payload))
    assert diagnostics == []
    return doc


def lowered_detour_doc() -> ScenarioDoc:
    """basic.json with a detour to the host that falls below its floor before a second request.

    Switch 3 joins endpoint 0 to host 1 over two 3 ms links, 6 ms against
    link 0's 5 ms. At 500 ms the first falls to 1 ms, below its floor, and
    a second request from 0 to 2 arrives at 1,000 ms: only a floor tree
    built after the fall routes it over the detour.
    """
    payload = json.loads((SCENARIOS / "basic.json").read_text())
    payload["network"]["nodes"].append({"id": 3, "kind": "switch"})
    payload["network"]["links"] += [
        {"id": 2, "a": 0, "b": 3, "bandwidth_mbps": 10, "latency_ms": 3},
        {"id": 3, "a": 3, "b": 1, "bandwidth_mbps": 10, "latency_ms": 3},
    ]
    requests = payload["workload"]["requests"]
    requests.append({**requests[0], "id": 1, "arrival_ms": 1000})
    payload["faults"] = {"link_degradations": [{"time_ms": 500, "link": 2, "latency_ms": 1}]}
    doc, diagnostics = parse_scenario(json.dumps(payload))
    assert diagnostics == []
    return doc


def random_doc(rng: Random, index: int) -> ScenarioDoc:
    """A small random scenario: requests, at most one host failure, degradations, stalls."""
    net = random_network(
        rng,
        n_endpoints=2,
        n_hosts=rng.randint(2, 3),
        n_switches=rng.randint(0, 1),
        extra_links=rng.randint(1, 3),
    )
    catalog = random_catalog(rng)
    duration = rng.randint(5, 10) * 1000
    requests = []
    for rid in range(rng.randint(1, 6)):
        base = random_request(rng, rid, net, catalog, target=rng.uniform(1.0, 3.5))
        requests.append(
            dataclasses.replace(
                base,
                arrival_ms=rng.randrange(0, duration),
                holding_ms=rng.choice((1500, 4000, duration + 5000)),
            )
        )
    hosts = sorted(net.residual_cpu)
    failures = []
    if hosts and rng.random() < 0.6:
        failures.append(
            HostFailure(time_ms=rng.randrange(0, duration), host=rng.choice(hosts))
        )
    degradations = [
        LinkDegradation(
            time_ms=rng.randrange(0, duration),
            link=link,
            latency_ms=rng.uniform(50.0, 400.0),
        )
        for link in sorted(net.links)
        if rng.random() < 0.2
    ]
    stalls = [
        StallInjection(
            time_ms=rng.randrange(0, duration),
            flow=request.id,
            stall_ratio=round(rng.uniform(0.0, 1.0), 2),
        )
        for request in requests
        if rng.random() < 0.2
    ]
    return ScenarioDoc(
        name=f"fuzz{index}",
        seed=rng.randrange(2**32),
        duration_ms=duration,
        window_ms=1000,
        nodes=tuple(net.nodes.values()),
        links=tuple(net.links[i] for i in sorted(net.links)),
        vnf_types=tuple(catalog.vnf_types[name] for name in sorted(catalog.vnf_types)),
        profiles=tuple(catalog.profiles[name] for name in sorted(catalog.profiles)),
        ela=Ela(3.0, 2, 0.8),
        policy=PolicyConfig(0.3),
        requests=tuple(requests),
        host_failures=tuple(failures),
        link_degradations=tuple(degradations),
        stall_injections=tuple(stalls),
    )


def degraded_doc(rng: Random, doc: ScenarioDoc) -> ScenarioDoc:
    """doc with its degradations replaced by records of every kind the format accepts.

    Each record sets one, two or all three figures. A latency falls below
    its link's base (down to 0) as often as above it, loss runs up to 100
    (100 itself included), and about one record in three repeats the link
    and instant of the record before it.
    """
    degradations: list[LinkDegradation] = []
    for _ in range(rng.randint(3, 8)):
        # The first record always draws; a repeat keeps the previous link.
        if degradations and rng.random() < 0.3:
            time_ms = degradations[-1].time_ms
        else:
            time_ms, link = rng.randrange(0, doc.duration_ms), rng.choice(doc.links)
        figures = {}
        for name in rng.sample(PathMetrics._fields, rng.randint(1, 3)):
            if name == "latency_ms":
                below = rng.random() < 0.5
                low, high = (0.0, link.latency_ms) if below else (link.latency_ms, 300.0)
                figures[name] = round(rng.uniform(low, high), 1)
            elif name == "jitter_ms":
                figures[name] = round(rng.uniform(0.0, 20.0), 1)
            else:
                figures[name] = rng.choice((100.0, round(rng.uniform(0.0, 100.0), 1)))
        degradations.append(LinkDegradation(time_ms=time_ms, link=link.id, **figures))
    return dataclasses.replace(doc, link_degradations=tuple(degradations))
