"""Service model: catalog, requests, path metrics and graph validation."""

import pytest

from qoechain import (
    AppProfile,
    ForwardingGraph,
    LinkSpec,
    NetworkState,
    NodeKind,
    NodeSpec,
    ServiceCatalog,
    VnfType,
    path_metrics,
    validate_forwarding_graph,
)
from qoechain.errors import InvalidRange, SimulatorError

from generators import line_network, make_profile, make_request, square_network


def test_vnf_type_validation():
    with pytest.raises(InvalidRange):
        VnfType("", 1, 1, 1.0)
    with pytest.raises(InvalidRange):
        VnfType("fw", -1, 1, 1.0)
    with pytest.raises(InvalidRange):
        VnfType("fw", 1, 1, -0.5)


def test_profile_validation():
    with pytest.raises(InvalidRange, match="profile video: bw_req must be positive"):
        make_profile(bw_kbps=0)
    with pytest.raises(InvalidRange, match="profile video: bw_req must be a whole number of kbps"):
        make_profile(bw_kbps=4000.4)
    with pytest.raises(InvalidRange, match="profile video: need 0 <= delay_opt_ms < delay_max_ms"):
        make_profile(delay_opt=100.0, delay_max=100.0)
    with pytest.raises(InvalidRange, match=r"profile video: loss_max must be in \(0, 100\]"):
        make_profile(loss_max=0.0)
    with pytest.raises(InvalidRange, match=r"profile video: loss_max must be in \(0, 100\]"):
        make_profile(loss_max=101.0)
    with pytest.raises(InvalidRange, match=r"profile video: stall_max must be in \(0, 1\]"):
        make_profile(stall_max=0.0)
    with pytest.raises(InvalidRange, match=r"profile video: stall_max must be in \(0, 1\]"):
        make_profile(stall_max=1.5)


def test_request_validation():
    with pytest.raises(InvalidRange):
        make_request(ingress=0, egress=0)
    with pytest.raises(InvalidRange):
        make_request(target=0.5)
    with pytest.raises(InvalidRange):
        make_request(target=5.5)
    with pytest.raises(InvalidRange):
        make_request(holding=0)
    with pytest.raises(InvalidRange):
        make_request(arrival=-1)
    with pytest.raises(InvalidRange):
        make_request(rid=-1)


def test_catalog_lookup():
    catalog = ServiceCatalog(
        [VnfType("fw", 1, 1, 10.0), VnfType("nat", 1, 1, 5.0)], [make_profile()]
    )
    assert catalog.vnf("fw").proc_latency_ms == 10.0
    assert catalog.profile("video").bw_req_mbps == 4.0
    assert catalog.proc_latencies(["nat", "fw", "nat"]) == [5.0, 10.0, 5.0]
    with pytest.raises(SimulatorError, match="unknown vnf type 'dpi'"):
        catalog.vnf("dpi")
    with pytest.raises(SimulatorError, match="unknown profile 'voice'"):
        catalog.profile("voice")
    with pytest.raises(InvalidRange):
        ServiceCatalog([VnfType("fw", 1, 1, 1.0), VnfType("fw", 2, 2, 2.0)], [])


def _metrics_network():
    nodes = [
        NodeSpec(0, NodeKind.ENDPOINT),
        NodeSpec(1, NodeKind.HOST, cpu_capacity=4, mem_capacity=4),
        NodeSpec(2, NodeKind.ENDPOINT),
    ]
    links = [
        LinkSpec(0, 0, 1, bandwidth_kbps=10_000, latency_ms=30.0, jitter_ms=3.0, loss_pct=2.0),
        LinkSpec(1, 1, 2, bandwidth_kbps=10_000, latency_ms=20.0, jitter_ms=2.0, loss_pct=3.0),
    ]
    return NetworkState(nodes, links)


def test_path_metrics_worked_example():
    net = _metrics_network()
    metrics = path_metrics([(0,), (1,)], net, proc_latencies_ms=(10.0, 5.0))
    assert metrics.latency_ms == pytest.approx(65.0)
    assert metrics.jitter_ms == pytest.approx(5.0)
    # losses compound: 100 * (1 - 0.98 * 0.97)
    assert metrics.loss_pct == pytest.approx(4.94)


def test_path_metrics_sees_quality_overrides():
    net = _metrics_network()
    net.degrade_link(0, latency_ms=100.0, loss_pct=50.0)
    metrics = path_metrics([(0, 1)], net)
    assert metrics.latency_ms == pytest.approx(120.0)
    assert metrics.loss_pct == pytest.approx(100.0 * (1 - 0.5 * 0.97))


def test_loss_composition_of_two_heavy_links():
    nodes = [NodeSpec(0, NodeKind.ENDPOINT), NodeSpec(1, NodeKind.SWITCH), NodeSpec(2, NodeKind.ENDPOINT)]
    links = [
        LinkSpec(0, 0, 1, bandwidth_kbps=1000, latency_ms=1.0, loss_pct=50.0),
        LinkSpec(1, 1, 2, bandwidth_kbps=1000, latency_ms=1.0, loss_pct=50.0),
    ]
    net = NetworkState(nodes, links)
    assert path_metrics([(0, 1)], net).loss_pct == pytest.approx(75.0)


def test_empty_path_has_zero_metrics():
    net = line_network()
    metrics = path_metrics([()], net)
    assert (metrics.latency_ms, metrics.jitter_ms, metrics.loss_pct) == (0.0, 0.0, 0.0)


def test_graph_links_collapse_repeats_and_skip_empty_segments():
    # Two VNFs on host 1: the segment between them is empty.
    graph = ForwardingGraph(
        hosts=(1, 1),
        segments=((0,), (), (0, 1, 3)),
        reserved_bw_kbps=4000,
    )
    assert graph.links == frozenset({0, 1, 3})
    assert graph.links is graph.links  # computed once per graph
    assert ForwardingGraph(hosts=(1,), segments=((), ()), reserved_bw_kbps=4000).links == set()


def _square_graph():
    return ForwardingGraph(hosts=(1,), segments=((0,), (2,)), reserved_bw_kbps=4000)


def test_validate_clean_graph():
    net = square_network()
    request = make_request(ingress=0, egress=3)
    assert validate_forwarding_graph(_square_graph(), request, net) == []


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda g: g.__setattr__("hosts", ()), "expected 1 placements"),
        (lambda g: g.__setattr__("segments", ((0,),)), "expected 2 segments"),
        (lambda g: g.__setattr__("segments", ((2,), (0,))), "does not touch"),
        (lambda g: g.__setattr__("segments", ((0,), (3,))), "does not touch"),
        (lambda g: g.__setattr__("segments", ((0, 0), (2,))), "repeated within segment"),
        (lambda g: g.__setattr__("segments", ((99,), (2,))), "unknown link"),
        (lambda g: g.__setattr__("segments", ((1,), (2,))), "ends at node 2, expected 1"),
        (lambda g: g.__setattr__("hosts", (0,)), "is not a host"),
    ],
)
def test_validate_detects_each_perturbation(mutate, fragment):
    net = square_network()
    request = make_request(ingress=0, egress=3)
    graph = _square_graph()
    mutate(graph)
    violations = validate_forwarding_graph(graph, request, net)
    assert any(fragment in violation for violation in violations)


def test_validate_swapped_segment_links_break_continuity():
    # A longer final segment is valid until its two middle links swap slots.
    net = square_network()
    request = make_request(ingress=0, egress=3)
    graph = ForwardingGraph(
        hosts=(1,),
        segments=((0,), (0, 1, 3)),  # 1 -> 0 -> 2 -> 3
        reserved_bw_kbps=4000,
    )
    assert validate_forwarding_graph(graph, request, net) == []
    graph.segments = ((0,), (1, 0, 3))
    assert validate_forwarding_graph(graph, request, net)


def test_validate_flags_a_placement_on_a_failed_host():
    net = square_network()
    request = make_request(ingress=0, egress=3)
    graph = _square_graph()
    net.fail_host(1)
    violations = validate_forwarding_graph(graph, request, net)
    assert any("has failed" in violation for violation in violations)


def test_validate_flags_a_segment_relayed_by_a_failed_host():
    # 0 -> 1 -> 3 places nothing on host 1 but forwards through it.
    net = square_network()
    request = make_request(ingress=0, egress=3, vnfs=())
    graph = ForwardingGraph((), ((0, 2),), 4000)
    assert validate_forwarding_graph(graph, request, net) == []
    net.fail_host(2)
    assert validate_forwarding_graph(graph, request, net) == []
    net.fail_host(1)
    assert validate_forwarding_graph(graph, request, net) == [
        "segment 0: relays through failed host 1"
    ]


def test_validate_empty_chain_graph():
    net = square_network()
    request = make_request(ingress=0, egress=3, vnfs=())
    graph = ForwardingGraph((), ((0, 2),), 4000)
    assert validate_forwarding_graph(graph, request, net) == []
    graph = ForwardingGraph((), ((0, 3),), 4000)
    assert validate_forwarding_graph(graph, request, net)


def test_profile_dataclass_is_frozen():
    profile = make_profile()
    with pytest.raises(AttributeError):
        profile.bw_req_kbps = 1000


def test_app_profile_accepts_boundary_values():
    AppProfile("edge", 1, 0.0, 0.1, 100.0, 1.0)
