"""Controller behavior: admission, oracle, monitoring and self-healing."""

import gc
import tracemalloc
from random import Random

import pytest

from qoechain import (
    Controller,
    Ela,
    FlowSample,
    ForwardingGraph,
    LifecycleStatus,
    LinkSpec,
    NodeKind,
    NodeSpec,
    OracleLimits,
    Orchestrator,
    PolicyConfig,
    Rejected,
    RejectReason,
    ServiceCatalog,
    VnfType,
    build_network,
    predict_mos,
    validate_forwarding_graph,
)
from qoechain.controller import ActionKind
from qoechain.errors import (
    AlreadyTerminal,
    DuplicateRequest,
    InstanceTooLarge,
    InvalidRange,
    UnknownRequest,
)
from qoechain.network import PlacementRecord
from qoechain.orchestrator import DbEntry

from generators import (
    fail_and_repair,
    line_network,
    make_profile,
    make_request,
    random_catalog,
    random_network,
    random_request,
    small_catalog,
    snapshot,
    square_network,
)

ELA = Ela(target_mos=3.0, breach_windows=2, compliance_budget=0.9)


def _controller(net=None, catalog=None, policy=PolicyConfig()):
    return Controller(net or line_network(), catalog or small_catalog(), ELA, policy)


def _orchestrator(net=None, catalog=None, policy=PolicyConfig()):
    """A controller behind the orchestrator whose database keeps the flows."""
    return Orchestrator(_controller(net, catalog, policy))


def _pair_catalog(**profile_kwargs):
    return ServiceCatalog([], [make_profile(name="stream", **profile_kwargs)])


def _parallel_pair(latencies=(10.0, 12.0), bw=10_000):
    nodes = [NodeSpec(0, NodeKind.ENDPOINT), NodeSpec(1, NodeKind.ENDPOINT)]
    links = [
        LinkSpec(i, 0, 1, bandwidth_kbps=bw, latency_ms=lat)
        for i, lat in enumerate(latencies)
    ]
    return build_network(nodes, links)


def test_admit_reserves_everything_transactionally():
    orch = _orchestrator()
    ctl = orch.controller
    request = make_request()
    graph = orch.submit_request(request, now=0)
    assert graph.placements == (("fw", 1),)
    assert graph.segments == ((0,), (1,))
    assert graph.reserved_bw_kbps == 4000
    assert ctl.network.available_cpu(1) == 6
    assert ctl.network.available_mem(1) == 6
    assert ctl.network.available_bw(0) == 6000
    assert ctl.network.available_bw(1) == 6000
    assert ctl.network.placements[(0, 0)].host_id == 1
    assert orch.counters()["admitted"] == 1
    assert validate_forwarding_graph(graph, request, ctl.network) == []


def test_admit_twice_raises():
    orch = _orchestrator()
    orch.submit_request(make_request(), now=0)
    with pytest.raises(DuplicateRequest):
        orch.submit_request(make_request(), now=0)


def test_consecutive_vnfs_may_share_a_host():
    orch = _orchestrator()
    ctl = orch.controller
    graph = orch.submit_request(make_request(vnfs=("fw", "nat")), now=0)
    assert graph.placements == (("fw", 1), ("nat", 1))
    assert graph.segments == ((0,), (), (1,))
    assert ctl.network.available_cpu(1) == 5  # 8 - 2 - 1


def test_host_tie_breaks_on_utilization_then_id():
    # Symmetric square: equal path latency to both hosts.
    orch = _orchestrator(square_network())
    graph = orch.submit_request(make_request(ingress=0, egress=3), now=0)
    assert graph.placements == (("fw", 1),)  # equal everything: lowest id

    net2 = square_network()
    net2.reserve(placements=[PlacementRecord((99, 0), host_id=1, cpu=2, mem=0)])
    orch2 = _orchestrator(net2)
    graph2 = orch2.submit_request(make_request(ingress=0, egress=3), now=0)
    assert graph2.placements == (("fw", 2),)  # loaded host loses the tie


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
    orch = _orchestrator(build_network(nodes, links))
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
    net = build_network(nodes, links)
    ctl = Controller(net, catalog, ELA)
    request = make_request(ingress=0, egress=3)

    exact = ctl.exact_embed(request)
    assert exact.placements == (("fw", 2),)
    assert exact.segments == ((1,), (3,))
    assert ctl.graph_latency(exact, request) == pytest.approx(4.0)
    assert snapshot(net) == snapshot(build_network(nodes, links))  # no reservation

    greedy = ctl.admit(request)
    assert greedy.placements == (("fw", 1),)
    assert ctl.graph_latency(greedy, request) == pytest.approx(6.0)


def test_exact_embed_infeasible_returns_none():
    catalog = ServiceCatalog([VnfType("fw", 99, 99, 0.0)], [make_profile()])
    ctl = Controller(square_network(), catalog, ELA)
    assert ctl.exact_embed(make_request(ingress=0, egress=3)) is None


def test_exact_embed_enforces_limits():
    nodes = [NodeSpec(0, NodeKind.ENDPOINT), NodeSpec(1, NodeKind.ENDPOINT)]
    nodes += [NodeSpec(i, NodeKind.HOST, cpu_capacity=1, mem_capacity=1) for i in range(2, 9)]
    links = [LinkSpec(0, 0, 1, bandwidth_kbps=10_000, latency_ms=1.0)]
    ctl = Controller(build_network(nodes, links), small_catalog(), ELA)
    with pytest.raises(InstanceTooLarge):
        ctl.exact_embed(make_request(ingress=0, egress=1, vnfs=()))

    ctl = _controller()
    with pytest.raises(InstanceTooLarge):
        ctl.exact_embed(make_request(vnfs=("fw",) * 4))

    ctl = Controller(square_network(), small_catalog(), ELA)
    with pytest.raises(InstanceTooLarge):
        ctl.exact_embed(
            make_request(ingress=0, egress=3, vnfs=()),
            OracleLimits(max_paths_per_pair=1),
        )


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
    return build_network(nodes, links)


def test_exact_embed_enforces_aggregate_bandwidth_per_link():
    catalog = ServiceCatalog([VnfType("fw", 2, 2, 0.0)], [make_profile()])
    request = make_request(ingress=0, egress=2)

    roomy = Controller(_spur_network(spur_bw_kbps=9000), catalog, ELA)
    graph = roomy.exact_embed(request)
    assert graph.placements == (("fw", 3),)
    # Out and back over the spur: link 2 appears in both segments.
    assert graph.segments == ((0, 2), (2, 1))

    tight = Controller(_spur_network(spur_bw_kbps=7000), catalog, ELA)
    # 7 Mbps covers one crossing but not both; no embedding remains.
    assert tight.exact_embed(request) is None


def test_monitor_window_scores_and_smooths():
    net = _parallel_pair()
    orch = _orchestrator(net, _pair_catalog(delay_opt=50.0, delay_max=250.0))
    ctl = orch.controller
    request = make_request(ingress=0, egress=1, vnfs=(), profile="stream")
    orch.submit_request(request, now=0)

    for window in (0, 1):
        samples, alerts = ctl.monitor_window(window, orch.db.live())
        assert [s.mos for s in samples] == [5.0]
        assert alerts == []

    net.degrade_link(0, latency_ms=300.0)
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
    assert len(alert_trail[2]) == 1
    assert alert_trail[2][0].window_index == 4


def test_monitor_reports_flows_in_ascending_id_order():
    orch = _orchestrator(square_network())
    orch.submit_request(make_request(rid=7, ingress=0, egress=3), now=0)
    orch.submit_request(make_request(rid=3, ingress=3, egress=0), now=0)
    samples, _ = orch.controller.monitor_window(0, orch.db.live())
    assert [s.flow_id for s in samples] == [3, 7]


def test_entry_keeps_only_the_breach_windows_samples():
    # The breach rule reads the last breach_windows samples; a long-lived
    # flow's entry must not grow with the horizon.
    net = _parallel_pair()
    orch = _orchestrator(net, _pair_catalog(delay_opt=50.0, delay_max=250.0))
    orch.submit_request(make_request(ingress=0, egress=1, vnfs=(), profile="stream"), now=0)
    entry = orch.db.entries[0]
    scored = []
    for window in range(50):
        if window == 40:
            net.degrade_link(0, latency_ms=300.0)
        samples, _ = orch.controller.monitor_window(window, orch.db.live())
        scored.extend(samples)
        assert len(entry.history) <= ELA.breach_windows
    assert entry.history == scored[-ELA.breach_windows:]


def test_stall_injection_shapes_q_stall():
    orch = _orchestrator()
    ctl = orch.controller
    orch.submit_request(make_request(), now=0)
    ctl.set_stall(0, 0.1)  # stall_max is 0.2
    samples, _ = ctl.monitor_window(0, orch.db.live())
    assert samples[0].q_stall == pytest.approx(0.5)
    assert samples[0].mos == pytest.approx(3.0)
    with pytest.raises(InvalidRange):
        ctl.set_stall(0, 1.5)


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


# Route figures are cached on the entry per graph object and quality epoch;
# these three pin what must still show in the very next window.


def test_degrading_a_used_link_shows_in_the_next_window():
    net = _parallel_pair()
    orch = _orchestrator(net, _pair_catalog(), PolicyConfig(predictor_alpha=1.0))
    orch.submit_request(make_request(ingress=0, egress=1, vnfs=(), profile="stream"), now=0)
    entry = orch.db.entries[0]
    orch.controller.monitor_window(0, orch.db.live())
    assert (entry.smoothed.delay_ms, entry.smoothed.loss_pct) == (10.0, 0.0)
    net.degrade_link(0, latency_ms=40.0, loss_pct=2.0)
    orch.controller.monitor_window(1, orch.db.live())
    assert entry.smoothed.delay_ms == 40.0
    assert entry.smoothed.loss_pct == pytest.approx(2.0)


def test_a_reroute_is_measured_on_the_new_segments_next_window():
    net = _parallel_pair()
    orch = _orchestrator(net, _pair_catalog(delay_opt=50.0, delay_max=250.0))
    orch.submit_request(make_request(ingress=0, egress=1, vnfs=(), profile="stream"), now=0)
    entry = orch.db.entries[0]
    net.degrade_link(0, latency_ms=300.0)
    # Measured after the degradation, so only the new graph tells the
    # figures of link 0 apart from those of the reroute.
    orch.controller.monitor_window(0, orch.db.live())
    assert entry.smoothed.delay_ms == 300.0
    orch.apply_action(orch.controller.handle_breach(entry), now=1000)
    assert entry.graph.segments == ((1,),)
    samples, _ = orch.controller.monitor_window(1, orch.db.live())
    assert entry.smoothed.delay_ms == 12.0  # smoothing restarted on link 1
    assert samples[0].mos == 5.0


def test_a_second_flow_on_a_shared_link_lowers_throughput_next_window():
    # Admission reserves a flow's whole requirement, which the floor offers
    # back; a graph reserving less (built by hand here) feels the residual,
    # and the residual moves with every reserve, so it is read every window.
    net = _parallel_pair(latencies=(10.0,))
    catalog = ServiceCatalog(
        [], [make_profile(name="stream"), make_profile(name="bulk", bw=8.0)]
    )
    orch = _orchestrator(net, catalog, PolicyConfig(predictor_alpha=1.0))
    light = ForwardingGraph(0, (), ((0,),), reserved_bw_kbps=1000)
    net.reserve(link_demands=light.link_usage())
    request = make_request(ingress=0, egress=1, vnfs=(), profile="stream")
    orch.db.entries[0] = DbEntry(request, light, LifecycleStatus.ACTIVE)
    samples, _ = orch.controller.monitor_window(0, orch.db.live())
    assert samples[0].q_bw == 1.0  # 9 Mbps free plus its own 1, capped at 4
    bulk = make_request(rid=1, ingress=0, egress=1, vnfs=(), profile="bulk")
    orch.submit_request(bulk, now=0)
    samples, _ = orch.controller.monitor_window(1, orch.db.live())
    assert orch.db.entries[0].smoothed.throughput_mbps == 2.0  # 1 free plus its own 1
    assert samples[0].q_bw == 0.5


# A moved quality epoch rebuilds a flow's figures only when a link of its
# route changed after they were built.


def _pair_flow(net):
    """One chain-free flow on link 0 of the pair, measured unsmoothed."""
    orch = _orchestrator(net, _pair_catalog(), PolicyConfig(predictor_alpha=1.0))
    orch.submit_request(make_request(ingress=0, egress=1, vnfs=(), profile="stream"), now=0)
    return orch, orch.db.entries[0]


def test_degrading_a_link_off_the_route_keeps_its_figures():
    net = _parallel_pair()
    orch, entry = _pair_flow(net)
    first, _ = orch.controller.monitor_window(0, orch.db.live())
    before = entry.route
    net.degrade_link(1, latency_ms=40.0, loss_pct=2.0)
    second, _ = orch.controller.monitor_window(1, orch.db.live())
    assert entry.route is before
    assert before.quality_epoch == net.quality_epoch
    assert (second[0].mos, second[0].q_delay, second[0].q_loss) == (
        first[0].mos,
        first[0].q_delay,
        first[0].q_loss,
    )
    assert (entry.smoothed.delay_ms, entry.smoothed.loss_pct) == (10.0, 0.0)


def test_degrading_a_link_on_the_route_rebuilds_its_figures():
    net = _parallel_pair()
    orch, entry = _pair_flow(net)
    orch.controller.monitor_window(0, orch.db.live())
    before = entry.route
    net.degrade_link(0, latency_ms=40.0)
    orch.controller.monitor_window(1, orch.db.live())
    assert entry.route is not before
    assert entry.route.quality_epoch == net.quality_epoch
    assert entry.smoothed.delay_ms == 40.0


def test_a_link_degraded_off_the_route_shows_once_the_flow_moves_onto_it():
    net = _parallel_pair()
    orch, entry = _pair_flow(net)
    net.degrade_link(1, latency_ms=15.0)  # off the route: figures kept
    orch.controller.monitor_window(0, orch.db.live())
    net.degrade_link(0, latency_ms=300.0)
    orch.controller.monitor_window(1, orch.db.live())
    assert entry.smoothed.delay_ms == 300.0
    orch.apply_action(orch.controller.handle_breach(entry), now=2000)
    assert entry.graph.segments == ((1,),)
    orch.controller.monitor_window(2, orch.db.live())
    assert entry.smoothed.delay_ms == 15.0  # the override, not the base 12 ms


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
                net.degrade_link(0, latency_ms=5.0 + window % 50)
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
    net = _parallel_pair()
    orch = _orchestrator(net, _pair_catalog(delay_opt=50.0, delay_max=250.0))
    orch.submit_request(make_request(ingress=0, egress=1, vnfs=(), profile="stream"), now=0)
    entry = orch.db.entries[0]
    orch.controller.monitor_window(0, orch.db.live())
    assert entry.smoothed is not None
    net.degrade_link(0, latency_ms=300.0)
    action = orch.controller.handle_breach(entry)
    orch.apply_action(action, now=1000)
    assert action.kind is ActionKind.REROUTED
    assert action.new_graph.segments == ((1,),)
    assert orch.counters()["rerouted"] == 1
    assert orch.counters()["migrated"] == 0
    assert net.available_bw(0) == 10_000  # old reservation released
    assert net.available_bw(1) == 6000
    assert entry.graph is action.new_graph
    # Smoothing restarts on the new path: the next window is taken raw.
    orch.controller.monitor_window(1, orch.db.live())
    assert entry.smoothed == FlowSample(
        flow_id=0,
        window_index=1,
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
    assert action.new_graph.placements == (("fw", 2),)
    assert action.new_graph.segments == ((1,), (3,))
    assert orch.counters()["migrated"] == 1
    assert orch.counters()["rerouted"] == 0
    assert net.available_cpu(1) == 4
    assert net.available_cpu(2) == 2
    assert net.placements[(0, 0)].host_id == 2


def test_handle_breach_marks_degraded_when_out_of_options():
    net = _parallel_pair(latencies=(10.0,))
    orch = _orchestrator(net, _pair_catalog())
    orch.submit_request(make_request(ingress=0, egress=1, vnfs=(), profile="stream"), now=0)
    net.degrade_link(0, latency_ms=1000.0)
    action = orch.controller.handle_breach(orch.db.entries[0])
    assert action.kind is ActionKind.MARKED_DEGRADED
    orch.apply_action(action, now=1000)
    assert orch.db.entries[0].status is LifecycleStatus.DEGRADED
    # Degraded flows stay monitored.
    samples, _ = orch.controller.monitor_window(0, orch.db.live())
    assert len(samples) == 1


def test_unchanged_segments_are_no_reroute():
    # A stall, not the path, is at fault: the best segments are the ones
    # the flow already has, which would pass the MOS gate but repair nothing.
    orch = _orchestrator()
    orch.submit_request(make_request(), now=0)
    orch.controller.set_stall(0, 0.9)
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
    assert graph.placements == (("fw", 2),)
    assert graph.segments == ((1,), (3,))
    assert net.available_bw(0) == 10_000
    assert net.available_bw(1) == 6000
    assert net.available_cpu(2) == 2
    assert orch.counters()["migrated"] == 1
    assert orch.db.entries[0].graph is graph
    assert validate_forwarding_graph(graph, orch.db.entries[0].request, net) == []


def test_host_failure_re_places_two_evicted_positions_of_one_chain():
    net = square_network()
    orch = _orchestrator(net)
    request = make_request(ingress=0, egress=3, vnfs=("fw", "nat"))
    orch.submit_request(request, now=0)
    assert orch.db.entries[0].graph.placements == (("fw", 1), ("nat", 1))
    actions = fail_and_repair(orch, 1)
    assert [a.kind for a in actions] == [ActionKind.MIGRATED]
    graph = actions[0].new_graph
    # fw is placed first and becomes the anchor nat is placed from; the
    # egress segment is rebuilt last, from nat's new host.
    assert graph.placements == (("fw", 2), ("nat", 2))
    assert graph.segments == ((1,), (), (3,))
    assert [net.available_bw(link_id) for link_id in range(4)] == [10_000, 6000, 10_000, 6000]
    assert (net.available_cpu(2), net.available_mem(2)) == (1, 1)
    assert {pid: rec.host_id for pid, rec in net.placements.items()} == {(0, 0): 2, (0, 1): 2}
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
    net = build_network(nodes, links)
    orch = _orchestrator(net)
    orch.submit_request(make_request(), now=0)
    assert orch.db.entries[0].graph.segments == ((0,), (2,))
    assert (net.available_cpu(1), net.available_bw(2)) == (0, 1000)
    # Loss does not weigh on paths, so new segments alone change nothing.
    net.degrade_link(0, loss_pct=50.0)
    action = orch.controller.handle_breach(orch.db.entries[0])
    orch.apply_action(action, now=1000)
    assert action.kind is ActionKind.MIGRATED
    assert action.new_graph.placements == (("fw", 1),)
    assert action.new_graph.segments == ((1,), (2,))
    assert (net.available_cpu(1), net.available_mem(1)) == (0, 0)
    assert [net.available_bw(link_id) for link_id in range(3)] == [10_000, 6000, 1000]
    assert net.placements[(0, 0)].host_id == 1


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
    net = build_network(nodes, links)
    orch = _orchestrator(net)
    request = make_request(ingress=0, egress=3)
    orch.submit_request(request, now=0)
    # The only refuge is too slow for the target: admission would refuse
    # it, but a flow that lost its host takes any embedding that fits.
    assert predict_mos(request, [(1,), (3,)], net, orch.controller.catalog).mos < 3.0
    actions = fail_and_repair(orch, 1)
    assert [a.kind for a in actions] == [ActionKind.MIGRATED]
    assert actions[0].new_graph.placements == (("fw", 2),)


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
    net = build_network(nodes, links)
    orch = _orchestrator(net)
    orch.submit_request(make_request(ingress=0, egress=3), now=0)
    actions = fail_and_repair(orch, 1)
    assert [a.kind for a in actions] == [ActionKind.FAILED]
    assert orch.db.entries[0].status is LifecycleStatus.FAILED
    assert orch.db.live() == []
    assert orch.counters()["failed"] == 1
    # Everything the flow held is back.
    assert net.available_bw(0) == 10_000
    assert net.available_bw(2) == 10_000
    assert net.placements == {}


def test_host_failure_handles_flows_in_id_order_until_room_runs_out():
    net = square_network()
    # Host 2 starts three-quarters full, so both admissions pick host 1.
    net.reserve(placements=[PlacementRecord((99, 0), host_id=2, cpu=3, mem=3)])
    orch = _orchestrator(net)
    orch.submit_request(make_request(rid=5, ingress=0, egress=3, vnfs=("nat",)), now=0)
    orch.submit_request(make_request(rid=2, ingress=3, egress=0, vnfs=("nat",)), now=0)
    evicted = net.fail_host(1)
    assert evicted == [(2, 0), (5, 0)]
    actions = orch.controller.handle_host_failure(evicted, orch.db.entries)
    for action in actions:
        orch.apply_action(action, now=0)
    assert [a.flow_id for a in actions] == [2, 5]
    # Host 2 has one spare unit: flow 2 migrates first and takes it.
    assert actions[0].kind is ActionKind.MIGRATED
    assert actions[0].new_graph.placements == (("nat", 2),)
    assert actions[1].kind is ActionKind.FAILED
    assert [entry.request.id for entry in orch.db.live()] == [2]
    assert orch.db.entries[5].status is LifecycleStatus.FAILED


def test_eviction_of_an_unknown_flow_raises_unknown_request():
    orch = _orchestrator(square_network())
    orch.submit_request(make_request(ingress=0, egress=3), now=0)
    assert orch.controller.network.fail_host(1) == [(0, 0)]
    with pytest.raises(UnknownRequest):
        orch.controller.handle_host_failure([(7, 0)], orch.db.entries)


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
    net = build_network(nodes, links)
    orch = _orchestrator(net)
    # Flow 0 places fw on host 2 and passes through host 1 on both sides;
    # flow 1 places nothing and only passes through host 1.
    net.reserve(placements=[PlacementRecord((99, 0), host_id=1, cpu=4, mem=4)])
    first = make_request(ingress=0, egress=3, target=1.0)
    orch.submit_request(first, now=0)
    net.release(placement_ids=[(99, 0)])
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
    assert actions[0].new_graph.placements == (("fw", 2),)
    assert actions[0].new_graph.segments == ((1,), (3,))
    assert actions[1].new_graph.segments == ((1, 3),)
    assert orch.counters()["rerouted"] == 2
    assert [net.available_bw(link_id) for link_id in range(5)] == [
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
    assert [net.available_bw(link_id) for link_id in range(2)] == [10_000, 10_000]


def test_release_flow_returns_holdings_and_restores_state():
    orch = _orchestrator()
    pristine = snapshot(orch.controller.network)
    orch.submit_request(make_request(), now=0)
    orch.complete_request(0, now=1000)
    assert snapshot(orch.controller.network) == pristine
    assert orch.counters()["completed"] == 1
    with pytest.raises(AlreadyTerminal):
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
                    result if isinstance(result, Rejected) else (result.placements, result.segments)
                )
            plans.append(outcome)
        assert plans[0] == plans[1]
