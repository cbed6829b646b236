"""Substrate state: topology validation, reservations, failures, overrides."""

import pytest

from qoechain import LinkSpec, NodeKind, NodeSpec, build_network
from qoechain.controller import ResourceView
from qoechain.errors import (
    AlreadyFailed,
    DanglingEndpoint,
    DuplicateId,
    InsufficientResidual,
    InvalidRange,
    InvariantViolation,
    NegativeCapacity,
    OverRelease,
    UnknownHost,
    UnknownLink,
)
from qoechain.network import PlacementRecord

from generators import line_network, snapshot, square_network


def test_node_validation():
    with pytest.raises(InvalidRange):
        NodeSpec(-1, NodeKind.HOST)
    with pytest.raises(NegativeCapacity):
        NodeSpec(0, NodeKind.HOST, cpu_capacity=-1)
    # Only hosts carry compute.
    with pytest.raises(InvalidRange):
        NodeSpec(0, NodeKind.SWITCH, cpu_capacity=4)
    with pytest.raises(InvalidRange):
        NodeSpec(0, NodeKind.ENDPOINT, mem_capacity=1)


def test_link_validation():
    with pytest.raises(DanglingEndpoint):
        LinkSpec(0, 1, 1, bandwidth_kbps=1000, latency_ms=1.0)
    with pytest.raises(NegativeCapacity):
        LinkSpec(0, 0, 1, bandwidth_kbps=0, latency_ms=1.0)
    with pytest.raises(InvalidRange):
        LinkSpec(0, 0, 1, bandwidth_kbps=1000, latency_ms=-1.0)
    with pytest.raises(InvalidRange):
        LinkSpec(0, 0, 1, bandwidth_kbps=1000, latency_ms=1.0, loss_pct=101.0)
    link = LinkSpec(3, 5, 9, bandwidth_kbps=1000, latency_ms=1.0)
    assert link.other(5) == 9
    assert link.other(9) == 5
    with pytest.raises(DanglingEndpoint):
        link.other(7)


def test_build_rejects_duplicates_and_dangling_links():
    nodes = [NodeSpec(0, NodeKind.ENDPOINT), NodeSpec(0, NodeKind.ENDPOINT)]
    with pytest.raises(DuplicateId):
        build_network(nodes, [])
    nodes = [NodeSpec(0, NodeKind.ENDPOINT), NodeSpec(1, NodeKind.ENDPOINT)]
    with pytest.raises(DanglingEndpoint):
        build_network(nodes, [LinkSpec(0, 0, 9, bandwidth_kbps=1000, latency_ms=1.0)])
    links = [
        LinkSpec(0, 0, 1, bandwidth_kbps=1000, latency_ms=1.0),
        LinkSpec(0, 1, 0, bandwidth_kbps=1000, latency_ms=1.0),
    ]
    with pytest.raises(DuplicateId):
        build_network(nodes, links)


def test_initial_residuals_match_capacity():
    net = line_network()
    assert net.host_ids() == (1,)
    assert net.available_cpu(1) == 8
    assert net.available_mem(1) == 8
    assert net.available_bw(0) == 10_000
    assert net.adjacency(1) == (0, 1)


def test_reserve_and_release_roundtrip():
    net = line_network()
    before = snapshot(net)
    net.reserve(
        link_demands={0: 4000, 1: 4000},
        placements=[PlacementRecord((7, 0), host_id=1, cpu=2, mem=3)],
    )
    assert net.available_cpu(1) == 6
    assert net.available_mem(1) == 5
    assert net.available_bw(0) == 6000
    assert (7, 0) in net.placements
    net.release(link_demands={0: 4000, 1: 4000}, placement_ids=[(7, 0)])
    assert snapshot(net) == before


def test_reserve_is_all_or_nothing():
    net = line_network()
    before = snapshot(net)
    # Second link demand exceeds capacity; the first must not stick.
    with pytest.raises(InsufficientResidual) as exc:
        net.reserve(link_demands={0: 4000, 1: 999_999})
    assert exc.value.resource == "bandwidth"
    assert exc.value.entity_id == 1
    assert snapshot(net) == before
    with pytest.raises(InsufficientResidual) as exc:
        net.reserve(placements=[PlacementRecord((7, 0), host_id=1, cpu=9, mem=0)])
    assert exc.value.resource == "cpu"
    assert snapshot(net) == before


def test_reserve_validates_ids_and_signs():
    net = line_network()
    with pytest.raises(UnknownHost):
        # Node 0 is an endpoint.
        net.reserve(placements=[PlacementRecord((7, 0), host_id=0, cpu=1, mem=1)])
    with pytest.raises(UnknownLink):
        net.reserve(link_demands={42: 1})
    with pytest.raises(NegativeCapacity):
        net.reserve(link_demands={0: -1})
    with pytest.raises(NegativeCapacity):
        net.reserve(placements=[PlacementRecord((7, 0), host_id=1, cpu=-1, mem=0)])


def test_duplicate_placement_id_rejected():
    net = line_network()
    record = PlacementRecord((1, 0), host_id=1, cpu=1, mem=1)
    net.reserve(placements=[record])
    with pytest.raises(DuplicateId):
        net.reserve(placements=[PlacementRecord((1, 0), host_id=1, cpu=1, mem=1)])
    with pytest.raises(DuplicateId):
        net.reserve(
            placements=[
                PlacementRecord((2, 0), host_id=1, cpu=1, mem=1),
                PlacementRecord((2, 0), host_id=1, cpu=1, mem=1),
            ]
        )


def test_over_release_is_an_invariant_violation():
    net = line_network()
    net.reserve(link_demands={0: 1000})
    with pytest.raises(OverRelease):
        net.release(link_demands={0: 2000})
    with pytest.raises(OverRelease):
        net.release(placement_ids=[(9, 9)])
    assert isinstance(OverRelease("bandwidth", 0), InvariantViolation)
    before = snapshot(net)
    # A failing release must also leave everything untouched.
    with pytest.raises(OverRelease):
        net.release(link_demands={0: 1000, 1: 1})
    assert snapshot(net) == before


def test_fail_host_evicts_and_resets():
    net = square_network()
    net.reserve(
        link_demands={0: 2000},
        placements=[
            PlacementRecord((0, 0), host_id=1, cpu=2, mem=2),
            PlacementRecord((1, 0), host_id=2, cpu=1, mem=1),
            PlacementRecord((0, 1), host_id=1, cpu=1, mem=1),
        ],
    )
    evicted = net.fail_host(1)
    assert evicted == [(0, 0), (0, 1)]
    assert net.available_cpu(1) == 1  # held until released
    assert net.available_mem(1) == 1
    assert net.available_bw(0) == 8000  # bandwidth is not host state
    assert set(net.placements) == {(0, 0), (1, 0), (0, 1)}
    assert 1 in net.failed_hosts
    # Releasing what the failed host holds gives it back in full.
    net.release(placement_ids=evicted)
    assert net.available_cpu(1) == 4
    assert net.available_mem(1) == 4
    assert set(net.placements) == {(1, 0)}
    with pytest.raises(AlreadyFailed):
        net.fail_host(1)
    # A failed host accepts no new demand.
    with pytest.raises(InsufficientResidual):
        net.reserve(placements=[PlacementRecord((2, 0), host_id=1, cpu=1, mem=1)])


def test_fail_host_rejects_non_hosts():
    net = square_network()
    with pytest.raises(UnknownHost):
        net.fail_host(0)
    with pytest.raises(UnknownHost):
        net.fail_host(42)


def test_degrade_link_overrides_quality():
    net = square_network()
    base = net.link_quality(0)
    assert (base.latency_ms, base.jitter_ms, base.loss_pct) == (5.0, 0.0, 0.0)
    net.degrade_link(0, latency_ms=300.0)
    quality = net.link_quality(0)
    assert quality.latency_ms == 300.0
    assert quality.jitter_ms == 0.0  # None keeps the current value
    net.degrade_link(0, loss_pct=12.5)
    quality = net.link_quality(0)
    assert quality.latency_ms == 300.0  # overrides stack, not reset
    assert quality.loss_pct == 12.5
    assert net.link_quality(1).latency_ms == 5.0
    with pytest.raises(UnknownLink):
        net.degrade_link(99, latency_ms=1.0)
    with pytest.raises(InvalidRange):
        net.degrade_link(0, loss_pct=200.0)
    with pytest.raises(InvalidRange):
        net.degrade_link(0, latency_ms=-1.0)


def test_degrade_link_refreshes_both_endpoints_edges_in_place():
    net = square_network()
    view = ResourceView(net)
    edges = net.edges
    before = dict(edges)
    assert edges[0] == ((0, 1, 5.0), (1, 2, 5.0))
    net.degrade_link(0, latency_ms=30.0)
    assert net.edges is edges  # mutated, never rebound
    assert edges[0] == ((0, 1, 30.0), (1, 2, 5.0))
    assert edges[1] == ((0, 0, 30.0), (2, 3, 5.0))
    assert edges[2] is before[2] and edges[3] is before[3]
    assert view.edges[0][0] == (0, 1, 30.0)  # a view built earlier sees it
    net.degrade_link(0, jitter_ms=2.0)
    assert edges[1][0] == (0, 0, 30.0)  # latency kept
    net.degrade_link(3, loss_pct=1.0)
    assert net.quality_changed == {0: 2, 3: 3}
    with pytest.raises(InvalidRange):
        net.degrade_link(2, latency_ms=-1.0)
    assert net.quality_changed == {0: 2, 3: 3}  # a rejected override records nothing


def test_snapshot_reflects_every_mutable_piece():
    net = square_network()
    base = snapshot(net)
    net.reserve(link_demands={0: 1})
    assert snapshot(net) != base
    net.release(link_demands={0: 1})
    assert snapshot(net) == base
    net.degrade_link(0, jitter_ms=1.0)
    assert snapshot(net) != base
