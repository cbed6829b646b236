"""Controller behavior: admission, oracle, monitoring and self-healing."""

import gc
import tracemalloc
from dataclasses import replace
from random import Random

import pytest

from qoechain import (
    Controller,
    Ela,
    FlowSample,
    LifecycleStatus,
    LinkSpec,
    NetworkState,
    NodeKind,
    NodeSpec,
    Orchestrator,
    PathMetrics,
    PolicyConfig,
    Rejected,
    RejectReason,
    ServiceCatalog,
    VnfType,
    estimate_mos,
    exact_embed,
    predict_mos,
    run,
    validate_forwarding_graph,
)
from qoechain import controller as controller_module
from qoechain import routing
from qoechain.controller import ActionKind, ResourceView
from qoechain.errors import InvalidRange, SimulatorError
from qoechain.oracle import graph_latency
from qoechain.orchestrator import DbEntry
from qoechain.routing import shortest_path_tree

from generators import (
    degrade_and_refresh,
    degraded_doc,
    fail_and_repair,
    line_network,
    make_profile,
    make_request,
    one_fault_of_each_kind,
    pair_catalog,
    parallel_pair,
    random_catalog,
    random_doc,
    random_network,
    random_request,
    series_rows,
    small_catalog,
    snapshot,
    square_network,
    stalled_flow,
    written_artifacts,
    written_dump,
    written_summary,
)

ELA = Ela(target_mos=3.0, breach_windows=2, compliance_budget=0.9)


def _controller(net=None, catalog=None, policy=PolicyConfig()):
    return Controller(net or line_network(), catalog or small_catalog(), ELA, policy)


def _orchestrator(net=None, catalog=None, policy=PolicyConfig()):
    """A controller behind the orchestrator whose database keeps the flows."""
    return Orchestrator(_controller(net, catalog, policy))


def test_admit_reserves_everything_transactionally():
    orch = _orchestrator()
    ctl = orch.controller
    request = make_request()
    graph = orch.submit_request(request, now=0)
    assert graph.hosts == (1,)
    assert graph.segments == ((0,), (1,))
    assert graph.reserved_bw_kbps == 4000
    assert ctl.network.residual_cpu[1] == 6
    assert ctl.network.residual_mem[1] == 6
    assert ctl.network.residual_bw[0] == 6000
    assert ctl.network.residual_bw[1] == 6000
    assert orch.db.entries[0].graph.hosts == (1,)
    assert orch.counters()["admitted"] == 1
    assert validate_forwarding_graph(graph, request, ctl.network) == []


def test_admit_twice_raises():
    orch = _orchestrator()
    orch.submit_request(make_request(), now=0)
    with pytest.raises(SimulatorError, match="request 0 already submitted"):
        orch.submit_request(make_request(), now=0)


def test_consecutive_vnfs_may_share_a_host():
    orch = _orchestrator()
    ctl = orch.controller
    graph = orch.submit_request(make_request(vnfs=("fw", "nat")), now=0)
    assert graph.hosts == (1, 1)
    assert graph.segments == ((0,), (), (1,))
    assert ctl.network.residual_cpu[1] == 5  # 8 - 2 - 1


def test_host_tie_breaks_on_utilization_then_id():
    # Symmetric square: equal path latency to both hosts.
    orch = _orchestrator(square_network())
    graph = orch.submit_request(make_request(ingress=0, egress=3), now=0)
    assert graph.hosts == (1,)  # equal everything: lowest id

    net2 = square_network()
    net2.reserve(cpu_demands={1: 2}, mem_demands={1: 0})
    orch2 = _orchestrator(net2)
    graph2 = orch2.submit_request(make_request(ingress=0, egress=3), now=0)
    assert graph2.hosts == (2,)  # loaded host loses the tie


def test_reject_reasons():
    hungry = ServiceCatalog(
        [VnfType("fw", cpu_demand=99, mem_demand=1, proc_latency_ms=1.0)],
        [make_profile()],
    )
    orch = _orchestrator(catalog=hungry)
    result = orch.submit_request(make_request(), now=0)
    assert result == Rejected(RejectReason.NO_HOST)
    assert orch.counters()["rejected"]["NoHost"] == 1

    thirsty = ServiceCatalog([], [make_profile(bw=20.0)])
    orch = _orchestrator(catalog=thirsty)
    result = orch.submit_request(make_request(vnfs=()), now=0)
    assert result == Rejected(RejectReason.NO_PATH)
    assert orch.counters()["rejected"]["NoPath"] == 1

    tight = ServiceCatalog(
        [VnfType("fw", 2, 2, 1.0)], [make_profile(delay_opt=1.0, delay_max=10.0)]
    )
    orch = _orchestrator(catalog=tight)
    result = orch.submit_request(make_request(), now=0)
    assert isinstance(result, Rejected)
    assert result.reason is RejectReason.QOE_BELOW_TARGET
    assert result.predicted_mos == pytest.approx(1.0)
    assert orch.counters()["rejected"]["QoeBelowTarget"] == 1
    assert orch.counters()["rejected_total"] == 1
    # Rejections never leak reservations.
    assert snapshot(orch.controller.network) == snapshot(line_network())


def test_admission_honors_per_request_target():
    # d_eff 11 on the line network; make q_delay about 0.5.
    catalog = ServiceCatalog(
        [VnfType("fw", 2, 2, 1.0)], [make_profile(delay_opt=1.0, delay_max=21.0)]
    )
    orch = _orchestrator(catalog=catalog)
    assert isinstance(orch.submit_request(make_request(rid=0, target=3.5), now=0), Rejected)
    assert not isinstance(
        orch.submit_request(make_request(rid=1, target=2.5), now=0), Rejected
    )


def test_plan_does_not_starve_itself_on_shared_links():
    # One 4 Mbps request over 5 Mbps links: the chain's own pending demand
    # must not depress its own predicted throughput.
    nodes = [
        NodeSpec(0, NodeKind.ENDPOINT),
        NodeSpec(1, NodeKind.HOST, cpu_capacity=4, mem_capacity=4),
        NodeSpec(2, NodeKind.ENDPOINT),
    ]
    links = [
        LinkSpec(0, 0, 1, bandwidth_kbps=5000, latency_ms=5.0),
        LinkSpec(1, 1, 2, bandwidth_kbps=5000, latency_ms=5.0),
    ]
    orch = _orchestrator(NetworkState(nodes, links))
    graph = orch.submit_request(make_request(target=4.9), now=0)
    assert not isinstance(graph, Rejected)


def test_exact_embed_beats_greedy_on_crafted_gap():
    nodes = [
        NodeSpec(0, NodeKind.ENDPOINT),
        NodeSpec(1, NodeKind.HOST, cpu_capacity=4, mem_capacity=4),
        NodeSpec(2, NodeKind.HOST, cpu_capacity=4, mem_capacity=4),
        NodeSpec(3, NodeKind.ENDPOINT),
    ]
    links = [
        LinkSpec(0, 0, 1, bandwidth_kbps=10_000, latency_ms=1.0),
        LinkSpec(1, 0, 2, bandwidth_kbps=10_000, latency_ms=2.0),
        LinkSpec(2, 1, 3, bandwidth_kbps=10_000, latency_ms=10.0),
        LinkSpec(3, 2, 3, bandwidth_kbps=10_000, latency_ms=2.0),
    ]
    catalog = ServiceCatalog([VnfType("fw", 1, 1, 0.0)], [make_profile()])
    net = NetworkState(nodes, links)
    ctl = Controller(net, catalog, ELA)
    request = make_request(ingress=0, egress=3)

    exact = exact_embed(net, catalog, request)
    assert exact.hosts == (2,)
    assert exact.segments == ((1,), (3,))
    assert graph_latency(net, catalog, exact, request) == pytest.approx(4.0)
    assert snapshot(net) == snapshot(NetworkState(nodes, links))  # no reservation

    greedy = ctl.admit(request)
    assert greedy.hosts == (1,)
    assert graph_latency(net, catalog, greedy, request) == pytest.approx(6.0)


def test_exact_embed_infeasible_returns_none():
    catalog = ServiceCatalog([VnfType("fw", 99, 99, 0.0)], [make_profile()])
    ctl = Controller(square_network(), catalog, ELA)
    assert exact_embed(ctl.network, ctl.catalog, make_request(ingress=0, egress=3)) is None


def test_exact_embed_enforces_limits(monkeypatch):
    nodes = [NodeSpec(0, NodeKind.ENDPOINT), NodeSpec(1, NodeKind.ENDPOINT)]
    nodes += [NodeSpec(i, NodeKind.HOST, cpu_capacity=1, mem_capacity=1) for i in range(2, 9)]
    links = [LinkSpec(0, 0, 1, bandwidth_kbps=10_000, latency_ms=1.0)]
    ctl = Controller(NetworkState(nodes, links), small_catalog(), ELA)
    with pytest.raises(SimulatorError, match="7 hosts exceeds oracle limit 6"):
        exact_embed(ctl.network, ctl.catalog, make_request(ingress=0, egress=1, vnfs=()))

    ctl = _controller()
    with pytest.raises(SimulatorError, match="chain length 4 exceeds oracle limit 3"):
        exact_embed(ctl.network, ctl.catalog, make_request(vnfs=("fw",) * 4))

    ctl = Controller(square_network(), small_catalog(), ELA)
    monkeypatch.setattr("qoechain.oracle.MAX_PATHS_PER_PAIR", 1)
    with pytest.raises(SimulatorError, match="more than 1 simple paths between 0 and 3"):
        exact_embed(ctl.network, ctl.catalog, make_request(ingress=0, egress=3, vnfs=()))


def _bw_view(net, deltas, shunned=()):
    """A planning view with deltas on its bandwidth and shunned links at -1, as _replan sets them."""
    view = ResourceView(net)
    for link_id, kbps in deltas.items():
        view.residual_bw[link_id] += kbps
    for link_id in shunned:
        view.residual_bw[link_id] = -1
    return view


def _full_tree_choice(net, searched, anchor, vnf, bw_kbps):
    """_place_next's rule read off an unbounded tree over searched.

    Returns the winning (host, segment), or the reject reason, and whether
    the winner is settled after another fitting host of its latency.
    """
    tree = shortest_path_tree(searched, anchor, bw_kbps)
    fits, options = False, []
    for host_id in net.host_ids:
        cpu, mem = net.residual_cpu[host_id], net.residual_mem[host_id]
        if host_id in net.failed_hosts or cpu < vnf.cpu_demand or mem < vnf.mem_demand:
            continue
        fits = True
        if host_id in tree:
            node = net.nodes[host_id]
            utilization = max(
                (node.cpu_capacity - cpu) / node.cpu_capacity,
                (node.mem_capacity - mem) / node.mem_capacity,
            )
            latency, hops, segment = tree[host_id]
            options.append((latency, utilization, host_id, segment, hops))
    if not options:
        return (RejectReason.NO_PATH if fits else RejectReason.NO_HOST), False
    chosen = min(options)
    first = min(options, key=lambda option: (option[0], option[4], option[3]))
    return (chosen[2], chosen[3]), first != chosen


def test_bounded_placement_matches_the_full_tree_choice():
    # Latencies of 1 or 2 ms put several fitting hosts in the nearest
    # latency tier, often at different hop counts, and the tie-breaks often
    # choose one settled after another: a search that stopped at the first
    # of them, rather than past the tier, would miss the winner.
    rng = Random(0x9EA7)
    placed = tied = 0
    for _ in range(120):
        net = random_network(
            rng,
            n_endpoints=2,
            n_hosts=8,
            n_switches=2,
            extra_links=8,
            latency_choices=(1.0, 2.0),
        )
        net.reserve(
            cpu_demands={h: rng.randint(0, net.nodes[h].cpu_capacity - 1) for h in net.host_ids},
            mem_demands={h: rng.randint(0, net.nodes[h].mem_capacity - 1) for h in net.host_ids},
        )
        net.fail_host(rng.choice(net.host_ids))
        ctl = Controller(net, small_catalog(), ELA)
        vnf = VnfType("v", rng.randint(1, 3), rng.randint(1, 3), 0.0)
        bw = rng.randint(1, 6) * 1000
        exclude = frozenset(rng.sample(sorted(net.links), rng.randint(0, 2)))
        deltas = {
            link_id: rng.choice((-1, 1)) * rng.randint(1, 4) * 1000
            for link_id in rng.sample(sorted(net.links), 4)
        }
        for searched_deltas in ({}, deltas):
            if searched_deltas or exclude:
                searched = _bw_view(net, searched_deltas, exclude)
            else:
                searched = net
            for anchor in sorted(net.nodes):
                expected, tie = _full_tree_choice(net, searched, anchor, vnf, bw)
                view = _bw_view(net, searched_deltas, exclude)
                assert ctl._place_next(view, anchor, vnf, bw) == expected
                placed += not isinstance(expected, RejectReason)
                tied += tie
    assert placed >= 2000  # most searches must place a VNF
    assert tied >= 100  # and many winners must follow a same-latency host


@pytest.fixture
def placement_trees(monkeypatch):
    """The shortest-path trees the controller builds, in build order."""
    trees = []

    def recording_tree(*args, **kwargs):
        trees.append(shortest_path_tree(*args, **kwargs))
        return trees[-1]

    monkeypatch.setattr(controller_module, "shortest_path_tree", recording_tree)
    return trees


def test_colocated_placement_settles_only_the_anchor_tier(placement_trees):
    # The line network plus host 3, joined to host 1 by a 0 ms link too
    # narrow for the demand: the nearest floor tier is hosts 1 and 3, and
    # host 3's label is not clean, so placement searches.
    nodes = [
        NodeSpec(0, NodeKind.ENDPOINT),
        NodeSpec(1, NodeKind.HOST, cpu_capacity=8, mem_capacity=8),
        NodeSpec(2, NodeKind.ENDPOINT),
        NodeSpec(3, NodeKind.HOST, cpu_capacity=8, mem_capacity=8),
    ]
    links = [
        LinkSpec(0, 0, 1, bandwidth_kbps=10_000, latency_ms=5.0),
        LinkSpec(1, 1, 2, bandwidth_kbps=10_000, latency_ms=5.0),
        LinkSpec(2, 1, 3, bandwidth_kbps=500, latency_ms=0.0),
    ]
    net = NetworkState(nodes, links)
    ctl = _controller(net)
    vnf = ctl.catalog.vnf("fw")
    assert ctl._place_next(ResourceView(net), 1, vnf, 1000) == (1, ())
    assert placement_trees == [{1: (0.0, 0, ())}]


def test_placement_stops_at_the_nearest_fitting_host(placement_trees):
    # Endpoint 0, then hosts 1..8 in a line, each 1 ms further: every host
    # fits, the nearest is one hop away and the tail is long.
    nodes = [NodeSpec(0, NodeKind.ENDPOINT)] + [
        NodeSpec(i, NodeKind.HOST, cpu_capacity=4, mem_capacity=4) for i in range(1, 9)
    ]
    links = [LinkSpec(i, i, i + 1, bandwidth_kbps=10_000, latency_ms=1.0) for i in range(8)]
    net = NetworkState(nodes, links)
    ctl = _controller(net)
    vnf = ctl.catalog.vnf("fw")
    # At its floor, the route to host 1 is clean: the floor tree answers.
    assert ctl._place_next(ResourceView(net), 0, vnf, 1000) == (1, (0,))
    assert placement_trees == []
    # Degraded above its floor, it is not: placement searches.
    net.degrade_link(0, latency_ms=1.5)
    placed = ctl._place_next(ResourceView(net), 0, vnf, 1000)
    assert placed == (1, (0,))
    assert len(shortest_path_tree(net, 0, 1000)) == 9
    assert [sorted(tree) for tree in placement_trees] == [[0, 1]]  # not the tail


def test_a_degradation_below_the_floor_reroutes_the_next_admission():
    # Link 1 falls from 12 to 8 ms, below link 0's 10 ms. Endpoint 0's floor
    # tree, built by the first admission, still names link 0, which is
    # clean, so a tree kept past the new floor would answer link 0.
    net = parallel_pair()
    orch = _orchestrator(net, pair_catalog())
    request = make_request(ingress=0, egress=1, vnfs=(), profile="stream")
    assert orch.submit_request(request, now=0).segments == ((0,),)
    degrade_and_refresh(orch, 1, latency_ms=8.0)
    assert net.floor.trees == {}
    again = orch.submit_request(replace(request, id=1), now=0)
    assert again.segments == ((1,),)


def test_a_degradation_above_the_floor_on_the_answer_falls_back_to_the_search(monkeypatch):
    net = parallel_pair()
    orch = _orchestrator(net, pair_catalog())
    request = make_request(ingress=0, egress=1, vnfs=(), profile="stream")
    assert orch.submit_request(request, now=0).segments == ((0,),)
    degrade_and_refresh(orch, 0, latency_ms=15.0)
    expected = shortest_path_tree(ResourceView(net), 0, 4000, (1,))[1][2]
    assert expected == (1,)
    trees = dict(net.floor.trees)
    settle, searches = routing._settle, []

    def recording_settle(*args):
        searches.append(args[1:])
        return settle(*args)

    monkeypatch.setattr(routing, "_settle", recording_settle)
    assert orch.submit_request(replace(request, id=1), now=0).segments == (expected,)
    assert searches == [(0, 4000, (1,))]  # the floor answer, link 0, is not clean
    assert net.floor.trees == trees  # a degradation above the floor keeps them


def test_floor_answers_change_no_run_under_every_kind_of_degradation(monkeypatch, tmp_path):
    # Degradations that lower floors, set one figure alone, reach 100% loss
    # and stack on one link at one instant: each run is clean under the
    # strict audits, and the same run with no floor answer taken, so that
    # every path and placement query searches, writes the same artifacts.
    rng = Random(32)
    docs = [degraded_doc(rng, random_doc(rng, index)) for index in range(200)]
    records = [(doc, fault) for doc in docs for fault in doc.link_degradations]
    assert any(
        fault.latency_ms is not None and fault.latency_ms < doc.links[fault.link].latency_ms
        for doc, fault in records
    )
    assert any(fault.loss_pct == 100.0 for _, fault in records)
    given = {
        tuple(name for name in PathMetrics._fields if getattr(fault, name) is not None)
        for _, fault in records
    }
    assert {("jitter_ms",), ("loss_pct",)} <= given
    assert any(
        len({(fault.time_ms, fault.link) for fault in doc.link_degradations})
        < len(doc.link_degradations)
        for doc in docs
    )
    floors = [
        written_artifacts(run(doc, strict_debug=True), tmp_path / f"floor{index}")
        for index, doc in enumerate(docs)
    ]
    monkeypatch.setattr(controller_module, "floor_tier", lambda *args: None)
    monkeypatch.setattr(routing, "_clean", lambda *args: False)
    for index, (doc, files) in enumerate(zip(docs, floors)):
        assert written_artifacts(run(doc), tmp_path / f"search{index}") == files, doc.name


def _spur_network(spur_bw_kbps: int):
    # Host 3 hangs off the path on a spur, so placing there crosses the
    # spur link in both directions: 8 Mbps of aggregate demand on it.
    nodes = [
        NodeSpec(0, NodeKind.ENDPOINT),
        NodeSpec(1, NodeKind.HOST, cpu_capacity=1, mem_capacity=1),  # too small
        NodeSpec(2, NodeKind.ENDPOINT),
        NodeSpec(3, NodeKind.HOST, cpu_capacity=4, mem_capacity=4),
    ]
    links = [
        LinkSpec(0, 0, 1, bandwidth_kbps=6000, latency_ms=1.0),
        LinkSpec(1, 1, 2, bandwidth_kbps=6000, latency_ms=1.0),
        LinkSpec(2, 1, 3, bandwidth_kbps=spur_bw_kbps, latency_ms=5.0),
    ]
    return NetworkState(nodes, links)


def test_exact_embed_enforces_aggregate_bandwidth_per_link():
    catalog = ServiceCatalog([VnfType("fw", 2, 2, 0.0)], [make_profile()])
    request = make_request(ingress=0, egress=2)

    # 8 Mbps is exactly the aggregate demand: usable bandwidth equal to the
    # demand is enough.
    for spur_bw_kbps in (9000, 8000):
        graph = exact_embed(_spur_network(spur_bw_kbps), catalog, request)
        assert graph.hosts == (3,)
        # Out and back over the spur: link 2 appears in both segments.
        assert graph.segments == ((0, 2), (2, 1))

    # 7 Mbps covers one crossing but not both; no embedding remains.
    assert exact_embed(_spur_network(spur_bw_kbps=7000), catalog, request) is None


def test_monitor_window_scores_and_smooths():
    net = parallel_pair()
    orch = _orchestrator(net, pair_catalog(delay_opt=50.0, delay_max=250.0))
    ctl = orch.controller
    request = make_request(ingress=0, egress=1, vnfs=(), profile="stream")
    orch.submit_request(request, now=0)

    for window in (0, 1):
        samples, alerts = ctl.monitor_window(window, orch.db.live())
        assert [s.mos for s in samples] == [5.0]
        assert alerts == []

    degrade_and_refresh(orch, 0, latency_ms=300.0)
    expected_delay = 10.0
    expected = []
    alert_trail = []
    for window in (2, 3, 4):
        expected_delay = 0.3 * 300.0 + 0.7 * expected_delay
        expected.append(expected_delay)
        samples, alerts = ctl.monitor_window(window, orch.db.live())
        q_delay = (250.0 - expected_delay) / 200.0
        assert samples[0].mos == pytest.approx(1.0 + 4.0 * q_delay, abs=1e-9)
        alert_trail.append(alerts)
    assert expected == pytest.approx([97.0, 157.9, 200.53])
    # Windows 3 and 4 score below 3.0; the second consecutive miss alerts.
    assert alert_trail[0] == [] and alert_trail[1] == []
    assert alert_trail[2] == [orch.db.entries[0]]
    assert orch.db.entries[0].breach_windows == [4]


def test_monitor_reports_flows_in_ascending_id_order():
    orch = _orchestrator(square_network())
    orch.submit_request(make_request(rid=7, ingress=0, egress=3), now=0)
    orch.submit_request(make_request(rid=3, ingress=3, egress=0), now=0)
    samples, _ = orch.controller.monitor_window(0, orch.db.live())
    assert [s.flow_id for s in samples] == [3, 7]


def test_a_degraded_flow_breaches_again_and_the_run_survives_a_reroute():
    # No other path: the breaching flow is marked degraded, stays below the
    # target and breaches again in the very next window.
    orch = stalled_flow()
    controller, entry = orch.controller, orch.db.entries[0]
    controller.set_stall(0, 0.2, orch.db.live())
    for window in range(2):
        _, breaching = controller.monitor_window(window, orch.db.live())
    assert breaching == [entry]
    assert entry.breach_windows == [1]
    action = controller.handle_breach(entry)
    assert action.kind is ActionKind.MARKED_DEGRADED
    orch.apply_action(action, now=2000)
    _, breaching = controller.monitor_window(2, orch.db.live())
    assert breaching == [entry]
    assert entry.breach_windows == [1, 2]
    assert entry.status is LifecycleStatus.DEGRADED

    # A spare link: the breach moves the flow, and the run below the target
    # carries over to the new graph, so the next stalled window breaches.
    orch = stalled_flow(latencies=(10.0, 12.0))
    controller, entry = orch.controller, orch.db.entries[0]
    controller.set_stall(0, 0.2, orch.db.live())
    for window in range(2):
        _, breaching = controller.monitor_window(window, orch.db.live())
    old_graph = entry.graph
    orch.apply_action(controller.handle_breach(entry), now=2000)
    assert entry.graph is not old_graph and entry.graph.segments == ((1,),)
    assert entry.windows_below == 2
    _, breaching = controller.monitor_window(2, orch.db.live())
    assert breaching == [entry]
    assert entry.breach_windows == [1, 2]
    controller.set_stall(0, 0.0, orch.db.live())
    _, breaching = controller.monitor_window(3, orch.db.live())
    assert breaching == [] and entry.windows_below == 0
    assert entry.breach_windows == [1, 2]


def test_stall_injection_shapes_q_stall():
    orch = _orchestrator()
    ctl = orch.controller
    orch.submit_request(make_request(), now=0)
    ctl.set_stall(0, 0.1, orch.db.live())  # stall_max is 0.2
    samples, _ = ctl.monitor_window(0, orch.db.live())
    assert samples[0].q_stall == pytest.approx(0.5)
    assert samples[0].mos == pytest.approx(3.0)
    with pytest.raises(InvalidRange):
        ctl.set_stall(0, 1.5, orch.db.live())


def test_reserved_bandwidth_insulates_throughput():
    # Admission reserved the flow's bandwidth, so later contention on the
    # same links never starves it: measurement offers its own share back.
    orch = _orchestrator()
    ctl = orch.controller
    orch.submit_request(make_request(), now=0)  # 4 of 10 Mbps
    ctl.network.reserve(link_demands={0: 6000, 1: 6000})  # links now fully booked
    samples, _ = ctl.monitor_window(0, orch.db.live())
    assert samples[0].q_bw == 1.0
    assert samples[0].mos > 4.9


# Route figures are cached on the entry, dropped at a repair or at a
# degradation on the route and built again by the next window; these two
# pin what must still show in that window.


def test_degrading_a_used_link_shows_in_the_next_window():
    net = parallel_pair()
    orch = _orchestrator(net, pair_catalog(), PolicyConfig(predictor_alpha=1.0))
    orch.submit_request(make_request(ingress=0, egress=1, vnfs=(), profile="stream"), now=0)
    entry = orch.db.entries[0]
    orch.controller.monitor_window(0, orch.db.live())
    assert (entry.smoothed.delay_ms, entry.smoothed.loss_pct) == (10.0, 0.0)
    degrade_and_refresh(orch, 0, latency_ms=40.0, loss_pct=2.0)
    orch.controller.monitor_window(1, orch.db.live())
    assert entry.smoothed.delay_ms == 40.0
    assert entry.smoothed.loss_pct == pytest.approx(2.0)


def test_a_reroute_is_measured_on_the_new_segments_next_window():
    net = parallel_pair()
    orch = _orchestrator(net, pair_catalog(delay_opt=50.0, delay_max=250.0))
    orch.submit_request(make_request(ingress=0, egress=1, vnfs=(), profile="stream"), now=0)
    entry = orch.db.entries[0]
    degrade_and_refresh(orch, 0, latency_ms=300.0)
    # Measured after the degradation, so only the new graph tells the
    # figures of link 0 apart from those of the reroute.
    orch.controller.monitor_window(0, orch.db.live())
    assert entry.smoothed.delay_ms == 300.0
    orch.apply_action(orch.controller.handle_breach(entry), now=1000)
    assert entry.graph.segments == ((1,),)
    samples, _ = orch.controller.monitor_window(1, orch.db.live())
    assert entry.smoothed.delay_ms == 12.0  # smoothing restarted on link 1
    assert samples[0].mos == 5.0


# A degradation drops a flow's figures only when the link is on its route.


def _pair_flow(net):
    """One chain-free flow on link 0 of the pair, measured unsmoothed."""
    orch = _orchestrator(net, pair_catalog(), PolicyConfig(predictor_alpha=1.0))
    orch.submit_request(make_request(ingress=0, egress=1, vnfs=(), profile="stream"), now=0)
    return orch, orch.db.entries[0]


def test_degrading_a_link_off_the_route_keeps_its_figures():
    net = parallel_pair()
    orch, entry = _pair_flow(net)
    first, _ = orch.controller.monitor_window(0, orch.db.live())
    before = entry.route
    degrade_and_refresh(orch, 1, latency_ms=40.0, loss_pct=2.0)
    second, _ = orch.controller.monitor_window(1, orch.db.live())
    assert entry.route is before
    assert (second[0].mos, second[0].q_delay, second[0].q_loss) == (
        first[0].mos,
        first[0].q_delay,
        first[0].q_loss,
    )
    assert (entry.smoothed.delay_ms, entry.smoothed.loss_pct) == (10.0, 0.0)


def test_degrading_a_link_on_the_route_rebuilds_its_figures():
    net = parallel_pair()
    orch, entry = _pair_flow(net)
    orch.controller.monitor_window(0, orch.db.live())
    before = entry.route
    degrade_and_refresh(orch, 0, latency_ms=40.0)
    # Rebuilt by the next window, under the new quality of the same link.
    orch.controller.monitor_window(1, orch.db.live())
    assert entry.route is not before and entry.graph.links == {0}
    assert (before.latency_ms, entry.route.latency_ms) == (10.0, 40.0)
    assert entry.smoothed.delay_ms == 40.0


def test_a_link_degraded_off_the_route_shows_once_the_flow_moves_onto_it():
    net = parallel_pair()
    orch, entry = _pair_flow(net)
    degrade_and_refresh(orch, 1, latency_ms=15.0)  # off the route: figures kept
    orch.controller.monitor_window(0, orch.db.live())
    degrade_and_refresh(orch, 0, latency_ms=300.0)
    orch.controller.monitor_window(1, orch.db.live())
    assert entry.smoothed.delay_ms == 300.0
    orch.apply_action(orch.controller.handle_breach(entry), now=2000)
    assert entry.graph.segments == ((1,),)
    orch.controller.monitor_window(2, orch.db.live())
    assert entry.smoothed.delay_ms == 15.0  # the override, not the base 12 ms


# A settled flow's sample is reused while nothing it is measured from moves.
# Each event below must show in the very next window, exactly as smoothing
# and scoring from scratch give it; a degradation off the route must not.

ALPHA = 0.3
FIGURES = ("throughput_mbps", "delay_ms", "jitter_ms", "loss_pct", "stall_ratio")


def _settle(orch) -> int:
    """Monitor until flow 0's sample is reused; returns the next window index."""
    entry = orch.db.entries[0]
    window = 0
    while entry.settled is None:
        assert window < 50, "smoothing never settled"
        orch.controller.monitor_window(window, orch.db.live())
        window += 1
    held = entry.settled
    samples, _ = orch.controller.monitor_window(window, orch.db.live())
    assert entry.settled is held  # reused, not scored again
    assert samples[0] is held
    return window + 1


def _scored_from_scratch(orch, window: int, raw: tuple, restart: bool = False):
    """Flow 0's sample in window, checked against the hand-computed EWMA of raw.

    raw holds the window's raw figures in FIGURES order; restart means the
    window is the first on a new graph, so it is taken raw.
    """
    entry = orch.db.entries[0]
    last = entry.smoothed
    samples, _ = orch.controller.monitor_window(window, orch.db.live())
    if not restart:
        carry = [getattr(last, name) for name in FIGURES]
        raw = [ALPHA * r + (1 - ALPHA) * c for r, c in zip(raw, carry)]
    profile = orch.controller.catalog.profile(entry.request.profile)
    assert samples[0] == estimate_mos(FlowSample(0, *raw), profile)
    return samples[0]


def _settled_pair_flow(net):
    """The chain-free stream flow on link 0 of the pair, settled under ALPHA."""
    orch = _orchestrator(net, pair_catalog(), PolicyConfig(predictor_alpha=ALPHA))
    orch.submit_request(make_request(ingress=0, egress=1, vnfs=(), profile="stream"), now=0)
    return orch, _settle(orch)


def test_a_settled_flow_feels_a_stall_change():
    orch, window = _settled_pair_flow(parallel_pair())
    orch.controller.set_stall(0, 0.1, orch.db.live())
    sample = _scored_from_scratch(orch, window, (4.0, 10.0, 0.0, 0.0, 0.1))
    assert sample.q_stall < 1.0


def test_a_settled_flow_feels_a_degradation_on_its_route():
    net = parallel_pair()
    orch, window = _settled_pair_flow(net)
    degrade_and_refresh(orch, 0, latency_ms=40.0, loss_pct=2.0)
    loss_pct = 100.0 * (1.0 - (1.0 - 2.0 / 100.0))
    sample = _scored_from_scratch(orch, window, (4.0, 40.0, 0.0, loss_pct, 0.0))
    assert sample.q_loss < 1.0


def test_two_degradations_before_a_window_build_the_route_figures_once(monkeypatch):
    orch, window = _settled_pair_flow(parallel_pair())
    builds = []
    path_metrics = controller_module.path_metrics
    monkeypatch.setattr(
        controller_module,
        "path_metrics",
        lambda segments, *args: builds.append(segments) or path_metrics(segments, *args),
    )
    degrade_and_refresh(orch, 0, latency_ms=300.0)
    degrade_and_refresh(orch, 0, latency_ms=40.0, loss_pct=2.0)
    assert builds == []
    # Under the final quality only: the first override is never scored.
    loss_pct = 100.0 * (1.0 - (1.0 - 2.0 / 100.0))
    _scored_from_scratch(orch, window, (4.0, 40.0, 0.0, loss_pct, 0.0))
    assert builds == [orch.db.entries[0].graph.segments]


def test_a_settled_flow_is_taken_raw_after_a_reroute():
    net = parallel_pair()
    orch, window = _settled_pair_flow(net)
    entry = orch.db.entries[0]
    degrade_and_refresh(orch, 0, latency_ms=300.0)
    orch.apply_action(orch.controller.handle_breach(entry), now=1000)
    assert entry.graph.segments == ((1,),)
    _scored_from_scratch(orch, window, (4.0, 12.0, 0.0, 0.0, 0.0), restart=True)
    assert entry.settled is None


def test_a_degradation_before_the_first_window_on_a_new_graph_keeps_the_restart():
    # The repair dropped the old graph's figures, which cross link 0, and
    # the smoothing carry; a degradation of link 0 before the next window
    # finds no figures to drop, and that window scores the new route raw.
    net = parallel_pair()
    orch, window = _settled_pair_flow(net)
    entry = orch.db.entries[0]
    degrade_and_refresh(orch, 0, latency_ms=300.0)
    orch.apply_action(orch.controller.handle_breach(entry), now=1000)
    assert entry.graph.segments == ((1,),)
    degrade_and_refresh(orch, 0, latency_ms=400.0)
    _scored_from_scratch(orch, window, (4.0, 12.0, 0.0, 0.0, 0.0), restart=True)
    # Smoothing then carries on over link 1 alone.
    _scored_from_scratch(orch, window + 1, (4.0, 12.0, 0.0, 0.0, 0.0))


def test_a_settled_flow_is_measured_on_its_new_graph_after_a_host_failure():
    # The repair that commits the migration drops the held sample and the
    # route figures, so the next window measures the new graph, and a later
    # degradation on the new route reaches the flow.
    net = square_network()
    net.degrade_link(1, latency_ms=20.0)  # host 2 is the farther refuge
    orch = _orchestrator(net, policy=PolicyConfig(predictor_alpha=ALPHA))
    orch.submit_request(make_request(ingress=0, egress=3), now=0)
    window = _settle(orch)
    entry = orch.db.entries[0]
    fail_and_repair(orch, 1)
    assert entry.graph.hosts == (2,)
    # 20 + 5 ms of links and 1 ms of fw, taken raw on the new graph.
    _scored_from_scratch(orch, window, (4.0, 26.0, 0.0, 0.0, 0.0), restart=True)
    degrade_and_refresh(orch, 3, latency_ms=15.0)
    _scored_from_scratch(orch, window + 1, (4.0, 36.0, 0.0, 0.0, 0.0))


def test_a_settled_flow_reuses_its_sample_after_a_degradation_off_its_route():
    net = parallel_pair()
    orch, window = _settled_pair_flow(net)
    entry = orch.db.entries[0]
    held = entry.settled
    degrade_and_refresh(orch, 1, latency_ms=40.0, loss_pct=2.0)
    sample = _scored_from_scratch(orch, window, (4.0, 10.0, 0.0, 0.0, 0.0))
    assert entry.settled is held
    assert sample is held


def test_a_moving_ewma_is_scored_afresh_every_window():
    net = parallel_pair()
    orch, window = _settled_pair_flow(net)
    entry = orch.db.entries[0]
    last = entry.settled
    degrade_and_refresh(orch, 0, latency_ms=300.0)
    for window in range(window, window + 10):
        sample = _scored_from_scratch(orch, window, (4.0, 300.0, 0.0, 0.0, 0.0))
        assert (sample.mos, sample.q_delay) != (last.mos, last.q_delay)
        assert entry.settled is None
        last = sample


def test_reusing_settled_samples_changes_no_run(monkeypatch, tmp_path):
    # The same runs with every reuse check missing: a DbEntry.settled that
    # always reads None makes the controller measure, smooth and score
    # every flow in every window.
    rng = Random(1414)
    docs = [one_fault_of_each_kind()] + [random_doc(rng, index) for index in range(200)]
    # Only monitoring's scorings count: the end-of-run audit scores held
    # samples again, outside monitor_window.
    calls, scored = [], []
    monkeypatch.setattr(
        controller_module,
        "estimate_mos",
        lambda sample, profile: calls.append(sample) or estimate_mos(sample, profile),
    )
    monitor = Controller.monitor_window

    def monitored(self, *args):
        start = len(calls)
        result = monitor(self, *args)
        scored.extend(calls[start:])
        return result

    monkeypatch.setattr(Controller, "monitor_window", monitored)
    reused = []
    for doc in docs:
        before = len(scored)
        reused.append(run(doc))
        # A reused window shares its sample object: the series holds one
        # object per scoring, however many windows repeat it.
        shared = {id(sample) for _, sample in series_rows(reused[-1])}
        assert len(shared) == len(scored) - before
    assert len(scored) < sum(len(list(series_rows(report))) for report in reused)
    never = property(lambda entry: None, lambda entry, value: None)
    monkeypatch.setattr(DbEntry, "settled", never)
    for index, (doc, first) in enumerate(zip(docs, reused)):
        second = run(doc)
        assert second.series == first.series
        assert written_summary(second, tmp_path / f"unsettled{index}") == written_summary(
            first, tmp_path / f"settled{index}"
        )
        assert written_dump(second, tmp_path / f"unsettled{index}") == written_dump(
            first, tmp_path / f"settled{index}"
        )


def _settled_stream_flows(count: int = 3):
    """count chain-free stream flows on link 0 of three, each settled under ALPHA.

    Links 1 and 2 carry no flow. Returns the orchestrator and the next
    window index.
    """
    net = parallel_pair(latencies=(10.0, 12.0, 15.0), bw=20_000)
    orch = _orchestrator(net, pair_catalog(), PolicyConfig(predictor_alpha=ALPHA))
    for rid in range(count):
        request = make_request(rid=rid, ingress=0, egress=1, vnfs=(), profile="stream")
        assert not isinstance(orch.submit_request(request, now=0), Rejected)
    entries = orch.db.live()
    assert all(entry.graph.segments == ((0,),) for entry in entries)
    window = 0
    while any(entry.settled is None for entry in entries):
        assert window < 50, "smoothing never settled"
        orch.controller.monitor_window(window, entries)
        window += 1
    return orch, window


def _count_measures(monkeypatch) -> list[int]:
    """The flow ids Controller._measure is called for, in call order."""
    measured: list[int] = []
    measure = Controller._measure

    def counted(self, entry, *args):
        measured.append(entry.request.id)
        return measure(self, entry, *args)

    monkeypatch.setattr(Controller, "_measure", counted)
    return measured


def test_quiet_windows_measure_no_settled_flow(monkeypatch):
    # A reserve or release off every route leaves a window quiet: a flow's
    # throughput is its own reservation, not what the ledger has left. So
    # does a stall set on a flow not admitted yet.
    orch, window = _settled_stream_flows()
    controller, net = orch.controller, orch.controller.network
    held = [entry.settled for entry in orch.db.live()]
    measured = _count_measures(monkeypatch)
    writes = [
        lambda: net.reserve(link_demands={1: 1000}),  # on no flow's route
        lambda: net.release(link_demands={1: 1000}),
        lambda: controller.set_stall(7, 0.2, orch.db.live()),
        lambda: None,
    ]
    for window, write in enumerate(writes, start=window):
        write()
        samples, _ = orch.controller.monitor_window(window, orch.db.live())
        assert all(sample is last for sample, last in zip(samples, held))
    assert measured == []


@pytest.mark.parametrize(
    ("change", "touched"),
    [
        ("degrade_link_on_routes", [0, 1, 2]),
        ("degrade_link_off_routes", []),
        ("set_stall", [1]),
        ("reserve", [1]),
    ],
    ids=["degrade_link_on_routes", "degrade_link_off_routes", "set_stall", "reserve"],
)
def test_a_change_measures_only_the_flows_it_touches(monkeypatch, change, touched):
    orch, window = _settled_stream_flows()
    controller, net = orch.controller, orch.controller.network
    measured = _count_measures(monkeypatch)
    if change == "degrade_link_on_routes":
        degrade_and_refresh(orch, 0, latency_ms=10.0)  # the latency link 0 has
    elif change == "degrade_link_off_routes":
        degrade_and_refresh(orch, 2, latency_ms=40.0)
    elif change == "set_stall":
        controller.set_stall(1, 0.0, orch.db.live())  # the level it already had
    else:
        # A ledger write touches no flow, even on every flow's route; beside
        # a change that does, it adds no second measure and no later one.
        net.reserve(link_demands={0: 1000})
        controller.set_stall(1, 0.0, orch.db.live())
    controller.monitor_window(window, orch.db.live())
    assert measured == touched
    # None of them read anything new, so each settled again and the next
    # window is quiet.
    controller.monitor_window(window + 1, orch.db.live())
    assert measured == touched


# A quiet window's sample list is shared by the windows after it until an
# event that changes what a live flow is measured from drops it.


def _shared(orch, window: int) -> tuple[list, int]:
    """Monitor until a window is quiet; its list and the next window index."""
    controller = orch.controller
    while controller.shared_window is None:
        assert window < 50, "no window was quiet"
        controller.monitor_window(window, orch.db.live())
        window += 1
    shared = controller.shared_window
    assert controller.monitor_window(window, orch.db.live()) == (shared, [])
    assert controller.monitor_window(window + 1, orch.db.live())[0] is shared
    return shared, window + 2


def _dropped(orch, window: int, shared: list) -> list:
    """The next window's samples, checked to be measured anew after a drop."""
    assert orch.controller.shared_window is None
    samples, _ = orch.controller.monitor_window(window, orch.db.live())
    assert samples is not shared
    assert [sample.flow_id for sample in samples] == [
        entry.request.id for entry in orch.db.live()
    ]
    return samples


def test_a_degradation_on_a_route_drops_the_shared_window():
    orch, window = _settled_stream_flows()
    shared, window = _shared(orch, window)
    degrade_and_refresh(orch, 0, latency_ms=300.0)  # smoothed past delay_opt
    samples = _dropped(orch, window, shared)
    assert all(sample.q_delay < held.q_delay for sample, held in zip(samples, shared))


def test_a_degradation_on_no_route_keeps_the_shared_window():
    # So does a stall set on a flow that is not live.
    orch, window = _settled_stream_flows()
    shared, window = _shared(orch, window)
    degrade_and_refresh(orch, 2, latency_ms=40.0)
    orch.controller.set_stall(7, 0.2, orch.db.live())
    assert orch.controller.shared_window is shared
    assert orch.controller.monitor_window(window, orch.db.live()) == (shared, [])
    assert orch.controller.monitor_window(window + 1, orch.db.live())[0] is shared


def test_a_stall_on_a_live_flow_drops_the_shared_window():
    orch, window = _settled_stream_flows()
    shared, window = _shared(orch, window)
    orch.controller.set_stall(1, 0.1, orch.db.live())
    samples = _dropped(orch, window, shared)
    assert [sample is held for sample, held in zip(samples, shared)] == [True, False, True]


def test_an_arrival_drops_the_shared_window():
    orch, window = _settled_stream_flows()
    shared, window = _shared(orch, window)
    request = make_request(rid=3, ingress=0, egress=1, vnfs=(), profile="stream")
    assert not isinstance(orch.submit_request(request, now=window * 1000), Rejected)
    samples = _dropped(orch, window, shared)
    assert samples[:3] == shared and len(samples) == 4


def test_a_departure_drops_the_shared_window():
    orch, window = _settled_stream_flows()
    shared, window = _shared(orch, window)
    orch.complete_request(1, now=window * 1000)
    samples = _dropped(orch, window, shared)
    assert samples == [shared[0], shared[2]]


def test_a_breach_repair_drops_the_shared_window():
    # Nothing breaches in a quiet window, so the repair is asked for
    # directly: the current segments are already the best, so the
    # re-embed moves flow 1 off link 0, the worst link it crosses.
    orch, window = _settled_stream_flows()
    shared, window = _shared(orch, window)
    entry = orch.db.entries[1]
    action = orch.controller.handle_breach(entry)
    assert action.kind is ActionKind.MIGRATED
    orch.apply_action(action, now=window * 1000)
    assert entry.graph.segments == ((1,),)
    samples = _dropped(orch, window, shared)
    assert samples[1] is not shared[1]


def test_a_host_failure_repair_drops_the_shared_window():
    net = square_network()
    orch = _orchestrator(net, policy=PolicyConfig(predictor_alpha=ALPHA))
    orch.submit_request(make_request(ingress=0, egress=3), now=0)
    shared, window = _shared(orch, 0)
    fail_and_repair(orch, 1, now=window * 1000)
    assert orch.db.entries[0].graph.hosts == (2,)
    _dropped(orch, window, shared)


def test_per_flow_state_stays_bounded_over_the_horizon():
    # Entries keep a bounded history and one set of route figures, however
    # long the flows live and however often the figures are rebuilt.
    net = square_network()
    orch = _orchestrator(net)
    for rid, (ingress, egress) in enumerate([(0, 3), (3, 0), (0, 3), (3, 0)]):
        request = make_request(rid=rid, ingress=ingress, egress=egress, vnfs=())
        assert not isinstance(orch.submit_request(request, now=0), Rejected)
    controller = orch.controller

    def run_windows(first: int, last: int) -> int:
        for window in range(first, last):
            if window % 25 == 0:
                degrade_and_refresh(orch, 0, latency_ms=5.0 + window % 50)
            controller.monitor_window(window, orch.db.live())
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        after_50 = run_windows(0, 50)
        after_450 = run_windows(50, 450)
    finally:
        tracemalloc.stop()
    assert after_450 - after_50 < 4096


def test_handle_breach_reroutes_to_the_spare_link():
    net = parallel_pair()
    orch = _orchestrator(net, pair_catalog(delay_opt=50.0, delay_max=250.0))
    orch.submit_request(make_request(ingress=0, egress=1, vnfs=(), profile="stream"), now=0)
    entry = orch.db.entries[0]
    orch.controller.monitor_window(0, orch.db.live())
    assert entry.smoothed is not None
    degrade_and_refresh(orch, 0, latency_ms=300.0)
    action = orch.controller.handle_breach(entry)
    orch.apply_action(action, now=1000)
    assert action.kind is ActionKind.REROUTED
    assert action.new_graph.segments == ((1,),)
    assert orch.counters()["rerouted"] == 1
    assert orch.counters()["migrated"] == 0
    assert net.residual_bw[0] == 10_000  # old reservation released
    assert net.residual_bw[1] == 6000
    assert entry.graph is action.new_graph
    # Smoothing restarts on the new path: the next window is taken raw.
    orch.controller.monitor_window(1, orch.db.live())
    assert entry.smoothed == FlowSample(
        flow_id=0,
        throughput_mbps=4.0,
        delay_ms=12.0,
        jitter_ms=0.0,
        loss_pct=0.0,
        stall_ratio=0.0,
    )


def test_handle_breach_escalates_to_migration():
    net = square_network()
    orch = _orchestrator(net)
    orch.submit_request(make_request(ingress=0, egress=3), now=0)
    net.degrade_link(0, loss_pct=50.0)  # worst link, latency untouched
    action = orch.controller.handle_breach(orch.db.entries[0])
    orch.apply_action(action, now=1000)
    # Reroute alone cannot help: the cheapest segments are unchanged, so the
    # first attempt fails and the re-embed shuns the lossy link.
    assert action.kind is ActionKind.MIGRATED
    assert action.new_graph.hosts == (2,)
    assert action.new_graph.segments == ((1,), (3,))
    assert orch.counters()["migrated"] == 1
    assert orch.counters()["rerouted"] == 0
    assert net.residual_cpu[1] == 4
    assert net.residual_cpu[2] == 2
    assert orch.db.entries[0].graph.hosts == (2,)


def test_handle_breach_marks_degraded_when_out_of_options():
    net = parallel_pair(latencies=(10.0,))
    orch = _orchestrator(net, pair_catalog())
    orch.submit_request(make_request(ingress=0, egress=1, vnfs=(), profile="stream"), now=0)
    degrade_and_refresh(orch, 0, latency_ms=1000.0)
    before = snapshot(net)
    action = orch.controller.handle_breach(orch.db.entries[0])
    assert action.kind is ActionKind.MARKED_DEGRADED
    # Both stages planned on views that gave the flow's holdings back and
    # placed new demand; none of it reached the state.
    assert snapshot(net) == before
    orch.apply_action(action, now=1000)
    assert orch.db.entries[0].status is LifecycleStatus.DEGRADED
    # Degraded flows stay monitored.
    samples, _ = orch.controller.monitor_window(0, orch.db.live())
    assert len(samples) == 1


def test_handle_breach_takes_no_plan_predicted_below_the_target():
    # The flow's link degrades, and the spare link fits but is too slow for
    # the target: both stages plan the flow onto it, and the MOS gate turns
    # each plan down, so the flow stays on its graph, marked degraded.
    net = parallel_pair(latencies=(10.0, 200.0))
    catalog = pair_catalog(delay_opt=50.0, delay_max=250.0)
    orch = _orchestrator(net, catalog, PolicyConfig(predictor_alpha=1.0))
    controller = orch.controller
    orch.submit_request(make_request(ingress=0, egress=1, vnfs=(), profile="stream"), now=0)
    entry = orch.db.entries[0]
    graph = entry.graph
    assert graph.segments == ((0,),)
    degrade_and_refresh(orch, 0, latency_ms=300.0)
    for window in range(ELA.breach_windows):
        _, breaching = controller.monitor_window(window, orch.db.live())
    assert breaching == [entry]
    ungated = controller._replan(entry.request, graph, (), range(1), gate=False)
    assert ungated.segments == ((1,),)
    assert predict_mos(entry.request, ungated.segments, net, catalog).mos == pytest.approx(2.0)
    before = snapshot(net)
    action = controller.handle_breach(entry)
    assert action.kind is ActionKind.MARKED_DEGRADED
    assert snapshot(net) == before
    orch.apply_action(action, now=2000)
    assert entry.graph is graph and entry.status is LifecycleStatus.DEGRADED


def test_unchanged_segments_are_no_reroute():
    # A stall, not the path, is at fault: the best segments are the ones
    # the flow already has, which would pass the MOS gate but repair nothing.
    orch = _orchestrator()
    orch.submit_request(make_request(), now=0)
    orch.controller.set_stall(0, 0.9, orch.db.live())
    action = orch.controller.handle_breach(orch.db.entries[0])
    assert action.kind is ActionKind.MARKED_DEGRADED


def test_single_attempt_policy_skips_migration():
    net = square_network()
    orch = _orchestrator(net, policy=PolicyConfig(max_reroute_attempts=1))
    orch.submit_request(make_request(ingress=0, egress=3), now=0)
    net.degrade_link(0, loss_pct=50.0)
    action = orch.controller.handle_breach(orch.db.entries[0])
    assert action.kind is ActionKind.MARKED_DEGRADED


def test_host_failure_migrates_evicted_positions():
    net = square_network()
    orch = _orchestrator(net)
    orch.submit_request(make_request(ingress=0, egress=3), now=0)
    actions = fail_and_repair(orch, 1)
    assert [a.kind for a in actions] == [ActionKind.MIGRATED]
    graph = actions[0].new_graph
    assert graph.hosts == (2,)
    assert graph.segments == ((1,), (3,))
    assert net.residual_bw[0] == 10_000
    assert net.residual_bw[1] == 6000
    assert net.residual_cpu[2] == 2
    assert orch.counters()["migrated"] == 1
    assert orch.db.entries[0].graph is graph
    assert validate_forwarding_graph(graph, orch.db.entries[0].request, net) == []


def test_host_failure_re_places_two_evicted_positions_of_one_chain():
    net = square_network()
    orch = _orchestrator(net)
    request = make_request(ingress=0, egress=3, vnfs=("fw", "nat"))
    orch.submit_request(request, now=0)
    assert orch.db.entries[0].graph.hosts == (1, 1)
    actions = fail_and_repair(orch, 1)
    assert [a.kind for a in actions] == [ActionKind.MIGRATED]
    graph = actions[0].new_graph
    # fw is placed first and becomes the anchor nat is placed from; the
    # egress segment is rebuilt last, from nat's new host.
    assert graph.hosts == (2, 2)
    assert graph.segments == ((1,), (), (3,))
    assert [net.residual_bw[link_id] for link_id in range(4)] == [10_000, 6000, 10_000, 6000]
    assert (net.residual_cpu[2], net.residual_mem[2]) == (1, 1)
    assert (net.residual_cpu[1], net.residual_mem[1]) == (4, 4)
    assert orch.db.entries[0].graph.hosts == (2, 2)
    assert validate_forwarding_graph(graph, request, net) == []


def test_breach_re_embed_may_reuse_the_flows_own_holdings():
    # Host 1 has room for exactly one fw and link 2 for one flow and a bit:
    # the re-embed fits only with what the flow itself holds offered back.
    nodes = [
        NodeSpec(0, NodeKind.ENDPOINT),
        NodeSpec(1, NodeKind.HOST, cpu_capacity=2, mem_capacity=2),
        NodeSpec(2, NodeKind.ENDPOINT),
    ]
    links = [
        LinkSpec(0, 0, 1, bandwidth_kbps=10_000, latency_ms=5.0),
        LinkSpec(1, 0, 1, bandwidth_kbps=10_000, latency_ms=6.0),
        LinkSpec(2, 1, 2, bandwidth_kbps=5000, latency_ms=5.0),
    ]
    net = NetworkState(nodes, links)
    orch = _orchestrator(net)
    orch.submit_request(make_request(), now=0)
    assert orch.db.entries[0].graph.segments == ((0,), (2,))
    assert (net.residual_cpu[1], net.residual_bw[2]) == (0, 1000)
    # Loss does not weigh on paths, so new segments alone change nothing.
    net.degrade_link(0, loss_pct=50.0)
    action = orch.controller.handle_breach(orch.db.entries[0])
    orch.apply_action(action, now=1000)
    assert action.kind is ActionKind.MIGRATED
    assert action.new_graph.hosts == (1,)
    assert action.new_graph.segments == ((1,), (2,))
    assert (net.residual_cpu[1], net.residual_mem[1]) == (0, 0)
    assert [net.residual_bw[link_id] for link_id in range(3)] == [10_000, 6000, 1000]
    assert orch.db.entries[0].graph.hosts == (1,)


def test_host_failure_migrates_below_the_target_rather_than_fail():
    nodes = [
        NodeSpec(0, NodeKind.ENDPOINT),
        NodeSpec(1, NodeKind.HOST, cpu_capacity=4, mem_capacity=4),
        NodeSpec(2, NodeKind.HOST, cpu_capacity=4, mem_capacity=4),
        NodeSpec(3, NodeKind.ENDPOINT),
    ]
    links = [
        LinkSpec(0, 0, 1, bandwidth_kbps=10_000, latency_ms=5.0),
        LinkSpec(1, 0, 2, bandwidth_kbps=10_000, latency_ms=300.0),
        LinkSpec(2, 1, 3, bandwidth_kbps=10_000, latency_ms=5.0),
        LinkSpec(3, 2, 3, bandwidth_kbps=10_000, latency_ms=300.0),
    ]
    net = NetworkState(nodes, links)
    orch = _orchestrator(net)
    request = make_request(ingress=0, egress=3)
    orch.submit_request(request, now=0)
    # The only refuge is too slow for the target: admission would refuse
    # it, but a flow that lost its host takes any embedding that fits.
    assert predict_mos(request, [(1,), (3,)], net, orch.controller.catalog).mos < 3.0
    actions = fail_and_repair(orch, 1)
    assert [a.kind for a in actions] == [ActionKind.MIGRATED]
    assert actions[0].new_graph.hosts == (2,)


def test_host_failure_without_refuge_fails_the_flow():
    nodes = [
        NodeSpec(0, NodeKind.ENDPOINT),
        NodeSpec(1, NodeKind.HOST, cpu_capacity=4, mem_capacity=4),
        NodeSpec(2, NodeKind.HOST, cpu_capacity=1, mem_capacity=1),  # too small
        NodeSpec(3, NodeKind.ENDPOINT),
    ]
    links = [
        LinkSpec(0, 0, 1, bandwidth_kbps=10_000, latency_ms=5.0),
        LinkSpec(1, 0, 2, bandwidth_kbps=10_000, latency_ms=5.0),
        LinkSpec(2, 1, 3, bandwidth_kbps=10_000, latency_ms=5.0),
        LinkSpec(3, 2, 3, bandwidth_kbps=10_000, latency_ms=5.0),
    ]
    net = NetworkState(nodes, links)
    orch = _orchestrator(net)
    orch.submit_request(make_request(ingress=0, egress=3), now=0)
    actions = fail_and_repair(orch, 1)
    assert [a.kind for a in actions] == [ActionKind.FAILED]
    assert orch.db.entries[0].status is LifecycleStatus.FAILED
    assert orch.db.live() == []
    assert orch.counters()["failed"] == 1
    # Everything the flow held is back.
    assert net.residual_bw[0] == 10_000
    assert net.residual_bw[2] == 10_000
    assert (net.residual_cpu[1], net.residual_mem[1]) == (4, 4)


def test_host_failure_handles_flows_in_id_order_until_room_runs_out():
    net = square_network()
    # Host 2 starts three-quarters full, so both admissions pick host 1.
    net.reserve(cpu_demands={2: 3}, mem_demands={2: 3})
    orch = _orchestrator(net)
    orch.submit_request(make_request(rid=5, ingress=0, egress=3, vnfs=("nat",)), now=0)
    orch.submit_request(make_request(rid=2, ingress=3, egress=0, vnfs=("nat",)), now=0)
    on_host_1 = sorted(entry.request.id for entry in orch.db.live() if 1 in entry.graph.hosts)
    assert on_host_1 == [2, 5]
    actions = fail_and_repair(orch, 1)
    assert [a.flow_id for a in actions] == [2, 5]
    # Host 2 has one spare unit: flow 2 migrates first and takes it.
    assert actions[0].kind is ActionKind.MIGRATED
    assert actions[0].new_graph.hosts == (2,)
    assert actions[1].kind is ActionKind.FAILED
    assert [entry.request.id for entry in orch.db.live()] == [2]
    assert orch.db.entries[5].status is LifecycleStatus.FAILED


def test_host_failure_reroutes_a_flow_that_relays_through_the_host():
    nodes = [
        NodeSpec(0, NodeKind.ENDPOINT),
        NodeSpec(1, NodeKind.HOST, cpu_capacity=4, mem_capacity=4),
        NodeSpec(2, NodeKind.HOST, cpu_capacity=4, mem_capacity=4),
        NodeSpec(3, NodeKind.ENDPOINT),
    ]
    links = [
        LinkSpec(0, 0, 1, bandwidth_kbps=10_000, latency_ms=5.0),
        LinkSpec(1, 0, 2, bandwidth_kbps=10_000, latency_ms=300.0),
        LinkSpec(2, 1, 3, bandwidth_kbps=10_000, latency_ms=5.0),
        LinkSpec(3, 2, 3, bandwidth_kbps=10_000, latency_ms=300.0),
        LinkSpec(4, 1, 2, bandwidth_kbps=10_000, latency_ms=5.0),
    ]
    net = NetworkState(nodes, links)
    orch = _orchestrator(net)
    # Flow 0 places fw on host 2 and passes through host 1 on both sides;
    # flow 1 places nothing and only passes through host 1.
    net.reserve(cpu_demands={1: 4}, mem_demands={1: 4})
    first = make_request(ingress=0, egress=3, target=1.0)
    orch.submit_request(first, now=0)
    net.release(cpu_demands={1: 4}, mem_demands={1: 4})
    second = make_request(rid=1, ingress=0, egress=3, vnfs=())
    orch.submit_request(second, now=0)
    assert orch.db.entries[0].graph.segments == ((0, 4), (4, 2))
    assert orch.db.entries[1].graph.segments == ((0, 2),)
    # The refuge is too slow for flow 1's target: a flow the failure hit
    # takes it anyway.
    catalog = orch.controller.catalog
    assert predict_mos(second, [(1, 3)], net, catalog).mos < 3.0
    actions = fail_and_repair(orch, 1)
    assert [(a.flow_id, a.kind) for a in actions] == [
        (0, ActionKind.REROUTED),
        (1, ActionKind.REROUTED),
    ]
    assert actions[0].new_graph.hosts == (2,)
    assert actions[0].new_graph.segments == ((1,), (3,))
    assert actions[1].new_graph.segments == ((1, 3),)
    assert orch.counters()["rerouted"] == 2
    assert [net.residual_bw[link_id] for link_id in range(5)] == [
        10_000,
        2000,
        10_000,
        2000,
        10_000,
    ]
    for entry in orch.db.live():
        assert validate_forwarding_graph(entry.graph, entry.request, net) == []


def test_host_failure_fails_a_relayed_flow_without_refuge_and_skips_ended_ones():
    net = line_network()
    orch = _orchestrator(net)
    orch.submit_request(make_request(vnfs=()), now=0)
    orch.submit_request(make_request(rid=1, vnfs=()), now=0)
    orch.complete_request(0, now=500)
    actions = fail_and_repair(orch, 1, now=1000)
    # Only the live flow is hit; the completed one holds nothing.
    assert [(a.flow_id, a.kind) for a in actions] == [(1, ActionKind.FAILED)]
    assert orch.db.entries[0].status is LifecycleStatus.COMPLETED
    assert orch.db.entries[1].status is LifecycleStatus.FAILED
    assert [net.residual_bw[link_id] for link_id in range(2)] == [10_000, 10_000]


def test_release_flow_returns_holdings_and_restores_state():
    orch = _orchestrator()
    pristine = snapshot(orch.controller.network)
    orch.submit_request(make_request(), now=0)
    orch.complete_request(0, now=1000)
    assert snapshot(orch.controller.network) == pristine
    assert orch.counters()["completed"] == 1
    with pytest.raises(SimulatorError, match="request 0 is already Completed"):
        orch.complete_request(0, now=2000)


def test_embedding_is_deterministic():
    for trial_seed in (1, 2, 3):
        rng_a, rng_b = Random(trial_seed), Random(trial_seed)
        plans = []
        for rng in (rng_a, rng_b):
            net = random_network(rng)
            catalog = random_catalog(rng)
            orch = _orchestrator(net, catalog)
            outcome = []
            for rid in range(6):
                request = random_request(rng, rid, net, catalog, target=1.0)
                result = orch.submit_request(request, now=0)
                outcome.append(
                    result if isinstance(result, Rejected) else (result.hosts, result.segments)
                )
            plans.append(outcome)
        assert plans[0] == plans[1]
