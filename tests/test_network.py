"""Substrate state: topology validation, reservations, failures, overrides."""

import pytest

from qoechain import LinkSpec, NetworkState, NodeKind, NodeSpec, PathMetrics
from qoechain.controller import ResourceView
from qoechain.errors import InvalidRange, InvariantViolation, SimulatorError
from qoechain.routing import floor_tier, shortest_feasible_path

from generators import line_network, snapshot, square_network


def test_node_validation():
    with pytest.raises(InvalidRange):
        NodeSpec(-1, NodeKind.HOST)
    with pytest.raises(InvalidRange, match="node 0: capacities must be non-negative"):
        NodeSpec(0, NodeKind.HOST, cpu_capacity=-1)
    # Only hosts carry compute.
    with pytest.raises(InvalidRange):
        NodeSpec(0, NodeKind.SWITCH, cpu_capacity=4)
    with pytest.raises(InvalidRange):
        NodeSpec(0, NodeKind.ENDPOINT, mem_capacity=1)


def test_link_validation():
    with pytest.raises(InvalidRange, match="link 0: self-loops are not allowed"):
        LinkSpec(0, 1, 1, bandwidth_kbps=1000, latency_ms=1.0)
    with pytest.raises(InvalidRange, match=r"link 0: bandwidth must be at least 0\.001 Mbps"):
        LinkSpec(0, 0, 1, bandwidth_kbps=0, latency_ms=1.0)
    with pytest.raises(InvalidRange):
        LinkSpec(0, 0, 1, bandwidth_kbps=1000, latency_ms=-1.0)
    with pytest.raises(InvalidRange):
        LinkSpec(0, 0, 1, bandwidth_kbps=1000, latency_ms=1.0, loss_pct=101.0)
    link = LinkSpec(3, 5, 9, bandwidth_kbps=1000, latency_ms=1.0)
    assert link.other(5) == 9
    assert link.other(9) == 5
    with pytest.raises(InvalidRange, match="node 7 is not an endpoint of link 3"):
        link.other(7)


def test_build_rejects_duplicates_and_dangling_links():
    nodes = [NodeSpec(0, NodeKind.ENDPOINT), NodeSpec(0, NodeKind.ENDPOINT)]
    with pytest.raises(SimulatorError, match="duplicate node id 0"):
        NetworkState(nodes, [])
    nodes = [NodeSpec(0, NodeKind.ENDPOINT), NodeSpec(1, NodeKind.ENDPOINT)]
    with pytest.raises(InvalidRange, match="link 0 references unknown node 9"):
        NetworkState(nodes, [LinkSpec(0, 0, 9, bandwidth_kbps=1000, latency_ms=1.0)])
    links = [
        LinkSpec(0, 0, 1, bandwidth_kbps=1000, latency_ms=1.0),
        LinkSpec(0, 1, 0, bandwidth_kbps=1000, latency_ms=1.0),
    ]
    with pytest.raises(SimulatorError, match="duplicate link id 0"):
        NetworkState(nodes, links)


def test_initial_residuals_match_capacity():
    net = line_network()
    assert net.host_ids == (1,)
    assert net.residual_cpu[1] == 8
    assert net.residual_mem[1] == 8
    assert net.residual_bw[0] == 10_000
    assert net.edges[1] == ((0, 0), (1, 2))


def test_reserve_and_release_roundtrip():
    net = line_network()
    before = snapshot(net)
    net.reserve(link_demands={0: 4000, 1: 4000}, cpu_demands={1: 2}, mem_demands={1: 3})
    assert net.residual_cpu[1] == 6
    assert net.residual_mem[1] == 5
    assert net.residual_bw[0] == 6000
    net.release(link_demands={0: 4000, 1: 4000}, cpu_demands={1: 2}, mem_demands={1: 3})
    assert snapshot(net) == before


def test_reserve_is_all_or_nothing():
    net = line_network()
    before = snapshot(net)
    # Second link demand exceeds capacity; the first must not stick.
    with pytest.raises(SimulatorError, match="insufficient bandwidth on 1") as exc:
        net.reserve(link_demands={0: 4000, 1: 999_999})
    assert str(exc.value) == "insufficient bandwidth on 1"
    assert snapshot(net) == before
    with pytest.raises(SimulatorError, match="insufficient cpu on 1") as exc:
        net.reserve(cpu_demands={1: 9}, mem_demands={1: 0})
    assert str(exc.value) == "insufficient cpu on 1"
    assert snapshot(net) == before


def test_reserve_validates_ids_and_signs():
    net = line_network()
    before = snapshot(net)
    with pytest.raises(SimulatorError, match="unknown host 0"):
        # Node 0 is an endpoint.
        net.reserve(cpu_demands={0: 1}, mem_demands={0: 1})
    with pytest.raises(SimulatorError, match="unknown link 42"):
        net.reserve(link_demands={42: 1})
    with pytest.raises(InvalidRange, match="negative bandwidth demand on 0"):
        net.reserve(link_demands={0: -1})
    with pytest.raises(InvalidRange, match="negative cpu demand on 1"):
        net.reserve(cpu_demands={1: -1}, mem_demands={1: 0})
    with pytest.raises(InvalidRange, match="negative cpu demand on 1"):
        net.release(cpu_demands={1: -1})
    assert snapshot(net) == before  # a rejected call writes nothing


def test_over_release_is_an_invariant_violation():
    net = line_network()
    net.reserve(link_demands={0: 1000})
    with pytest.raises(InvariantViolation, match="over-release of bandwidth on 0") as exc:
        net.release(link_demands={0: 2000})
    with pytest.raises(InvariantViolation, match="over-release of cpu on 1"):
        # Host 1 holds nothing.
        net.release(cpu_demands={1: 1})
    assert str(exc.value) == "over-release of bandwidth on 0"
    before = snapshot(net)
    # A failing release must also leave everything untouched.
    with pytest.raises(InvariantViolation, match="over-release of bandwidth on 1"):
        net.release(link_demands={0: 1000, 1: 1})
    assert snapshot(net) == before


@pytest.mark.parametrize(
    ("call", "demands", "error", "message"),
    [
        ("reserve", {"cpu_demands": {0: 1}}, SimulatorError, "unknown host 0"),
        ("reserve", {"mem_demands": {0: 1}}, SimulatorError, "unknown host 0"),
        ("release", {"cpu_demands": {5: 1}}, SimulatorError, "unknown host 5"),
        ("reserve", {"link_demands": {42: 1}}, SimulatorError, "unknown link 42"),
        ("release", {"link_demands": {42: 1}}, SimulatorError, "unknown link 42"),
        ("reserve", {"cpu_demands": {1: -1}}, InvalidRange, "negative cpu demand on 1"),
        ("reserve", {"mem_demands": {1: -1}}, InvalidRange, "negative mem demand on 1"),
        ("release", {"link_demands": {0: -1}}, InvalidRange, "negative bandwidth demand on 0"),
        ("reserve", {"cpu_demands": {1: 9}}, SimulatorError, "insufficient cpu on 1"),
        ("reserve", {"mem_demands": {1: 9}}, SimulatorError, "insufficient mem on 1"),
        ("reserve", {"link_demands": {1: 10_001}}, SimulatorError, "insufficient bandwidth on 1"),
        ("release", {"cpu_demands": {1: 1}}, InvariantViolation, "over-release of cpu on 1"),
        ("release", {"mem_demands": {1: 1}}, InvariantViolation, "over-release of mem on 1"),
        ("release", {"link_demands": {0: 1}}, InvariantViolation, "over-release of bandwidth on 0"),
    ],
)
def test_each_single_ledger_fault_raises_its_own_error(call, demands, error, message):
    net = line_network()
    before = snapshot(net)
    with pytest.raises(SimulatorError) as exc:
        getattr(net, call)(**demands)
    assert type(exc.value) is error and str(exc.value) == message
    assert snapshot(net) == before


@pytest.mark.parametrize("kind", ["cpu_demands", "mem_demands"])
def test_a_reserve_on_a_failed_host_raises_whatever_the_demand(kind):
    net = line_network()
    net.fail_host(1)
    before = snapshot(net)
    with pytest.raises(SimulatorError) as exc:
        net.reserve(**{kind: {1: 0}})
    assert type(exc.value) is SimulatorError and str(exc.value) == "host 1 has failed"
    assert snapshot(net) == before


def test_a_fault_in_the_last_bandwidth_demand_writes_nothing():
    # Valid CPU and memory demands are checked before the bandwidth table,
    # and nothing is written until every demand has passed.
    net = line_network()
    net.reserve(link_demands={0: 1000, 1: 1000}, cpu_demands={1: 2}, mem_demands={1: 2})
    before = snapshot(net)
    with pytest.raises(SimulatorError, match="insufficient bandwidth on 1"):
        net.reserve(link_demands={0: 1000, 1: 9001}, cpu_demands={1: 2}, mem_demands={1: 2})
    assert snapshot(net) == before
    with pytest.raises(InvariantViolation, match="over-release of bandwidth on 1"):
        net.release(link_demands={0: 1000, 1: 1001}, cpu_demands={1: 2}, mem_demands={1: 2})
    assert snapshot(net) == before


def test_of_several_ledger_faults_the_first_demand_in_table_order_is_raised():
    # CPU, then memory, then bandwidth, each in map order; a demand's own
    # faults in the order id, failed host, sign, fit.
    net = line_network()
    with pytest.raises(SimulatorError, match="^insufficient cpu on 1$"):
        net.reserve(cpu_demands={1: 9, 0: 1})
    with pytest.raises(InvalidRange, match="^negative cpu demand on 1$"):
        net.reserve(cpu_demands={1: -1}, mem_demands={0: 1}, link_demands={42: 1})
    with pytest.raises(SimulatorError, match="^unknown host 0$"):
        net.reserve(mem_demands={0: -1}, link_demands={0: -1})
    net.fail_host(1)
    with pytest.raises(SimulatorError, match="^host 1 has failed$"):
        net.reserve(cpu_demands={1: -1})


def test_fail_host_evicts_and_resets():
    net = square_network()
    net.reserve(link_demands={0: 2000}, cpu_demands={1: 3, 2: 1}, mem_demands={1: 3, 2: 1})
    net.fail_host(1)
    assert net.residual_cpu[1] == 1  # held until released
    assert net.residual_mem[1] == 1
    assert net.residual_bw[0] == 8000  # bandwidth is not host state
    assert net.residual_cpu[2] == 3  # other hosts are untouched
    assert 1 in net.failed_hosts
    # Releasing what the failed host holds gives it back in full.
    net.release(cpu_demands={1: 3}, mem_demands={1: 3})
    assert net.residual_cpu[1] == 4
    assert net.residual_mem[1] == 4
    assert net.residual_cpu[2] == 3
    with pytest.raises(SimulatorError, match="host 1 already failed"):
        net.fail_host(1)
    # A failed host accepts no new demand.
    with pytest.raises(SimulatorError, match="host 1 has failed"):
        net.reserve(cpu_demands={1: 1}, mem_demands={1: 1})


def test_fail_host_rejects_non_hosts():
    net = square_network()
    with pytest.raises(SimulatorError, match="unknown host 0"):
        net.fail_host(0)
    with pytest.raises(SimulatorError, match="unknown host 42"):
        net.fail_host(42)


def test_degrade_link_overrides_quality():
    net = square_network()
    base = net.quality[0]
    assert (base.latency_ms, base.jitter_ms, base.loss_pct) == (5.0, 0.0, 0.0)
    net.degrade_link(0, latency_ms=300.0)
    quality = net.quality[0]
    assert quality.latency_ms == 300.0
    assert quality.jitter_ms == 0.0  # None keeps the current value
    net.degrade_link(0, loss_pct=12.5)
    quality = net.quality[0]
    assert quality.latency_ms == 300.0  # overrides stack, not reset
    assert quality.loss_pct == 12.5
    assert net.quality[1].latency_ms == 5.0
    with pytest.raises(SimulatorError, match="unknown link 99"):
        net.degrade_link(99, latency_ms=1.0)
    with pytest.raises(InvalidRange):
        net.degrade_link(0, loss_pct=200.0)
    with pytest.raises(InvalidRange):
        net.degrade_link(0, latency_ms=-1.0)


def test_degrade_link_writes_quality_and_the_floor_but_never_the_topology():
    net = square_network()
    view = ResourceView(net)
    edges = net.edges
    before = dict(edges)
    assert edges[0] == ((0, 1), (1, 2)) and net.floor.edges is edges
    assert floor_tier(view, 0, 1000, {3}.__contains__) == {3: (10.0, 2, (0, 2))}
    net.degrade_link(0, latency_ms=30.0)  # above its floor
    assert net.edges is edges and edges == before
    assert net.floor.quality[0] == PathMetrics(5.0, 0.0, 0.0)
    assert floor_tier(view, 0, 1000, {3}.__contains__) is None  # link 0 is above its floor
    assert shortest_feasible_path(view, 0, 3, 1000) == [1, 3]  # a view built earlier sees 30 ms
    net.degrade_link(1, latency_ms=1.0)  # below its floor
    assert net.edges is edges and edges == before
    assert net.floor.quality[1] == PathMetrics(1.0, 0.0, 0.0)
    assert floor_tier(view, 0, 1000, {3}.__contains__) == {3: (6.0, 2, (1, 3))}
    net.degrade_link(3, jitter_ms=2.0, loss_pct=1.0)
    assert net.edges is edges and edges == before
    assert net.floor.quality[3] == PathMetrics(5.0, 0.0, 0.0)
    after = snapshot(net)
    with pytest.raises(InvalidRange):
        net.degrade_link(2, latency_ms=-1.0)
    with pytest.raises(InvalidRange):
        net.degrade_link(2, latency_ms=0.5, loss_pct=200.0)
    # A rejected override changes nothing, not even a floor it would lower.
    assert snapshot(net) == after
    assert edges == before


def test_snapshot_reflects_every_mutable_piece():
    net = square_network()
    base = snapshot(net)
    net.reserve(link_demands={0: 1})
    assert snapshot(net) != base
    net.release(link_demands={0: 1})
    assert snapshot(net) == base
    net.degrade_link(0, jitter_ms=1.0)
    assert snapshot(net) != base
    # A query builds its source's floor tree.
    quiet = snapshot(net)
    assert shortest_feasible_path(net, 0, 3, 1000) == [0, 2]
    built = snapshot(net)
    assert built != quiet
    # A degradation below link 1's floor, then one back to its base latency:
    # the link's quality is as it was, its floor is not, and no tree stands.
    net.degrade_link(1, latency_ms=1.0)
    net.degrade_link(1, latency_ms=5.0)
    assert net.floor.trees == {}
    assert snapshot(net) not in (quiet, built)
