"""Path search: deterministic shortest paths and exhaustive enumeration."""

from random import Random

import pytest

from qoechain import (
    LinkSpec,
    NetworkState,
    NodeKind,
    NodeSpec,
    enumerate_simple_paths,
    shortest_feasible_path,
)
from qoechain.controller import ResourceView
from qoechain.errors import SimulatorError
from qoechain.oracle import path_key
from qoechain.routing import floor_tier, shortest_path_tree

from generators import random_network, square_network


def _parallel_pair():
    nodes = [NodeSpec(0, NodeKind.ENDPOINT), NodeSpec(1, NodeKind.ENDPOINT)]
    links = [
        LinkSpec(0, 0, 1, bandwidth_kbps=5000, latency_ms=10.0),
        LinkSpec(1, 0, 1, bandwidth_kbps=5000, latency_ms=12.0),
        LinkSpec(2, 0, 1, bandwidth_kbps=9000, latency_ms=10.0),
    ]
    return NetworkState(nodes, links)


def test_shortest_picks_lowest_latency_then_link_id():
    net = _parallel_pair()
    # Links 0 and 2 tie on latency and hops; the smaller id wins.
    assert shortest_feasible_path(net, 0, 1, 1000) == [0]


def test_bandwidth_filter_redirects():
    net = _parallel_pair()
    assert shortest_feasible_path(net, 0, 1, 6000) == [2]
    assert shortest_feasible_path(net, 0, 1, 9500) is None


def _shunning(net, links):
    """net itself, or a planning view of it that shuns links as _replan does."""
    if not links:
        return net
    view = ResourceView(net)
    for link_id in links:
        view.residual_bw[link_id] = -1
    return view


def test_exclude_links_forces_detour():
    net = _parallel_pair()
    assert shortest_feasible_path(_shunning(net, {0, 2}), 0, 1, 1000) == [1]
    assert shortest_feasible_path(_shunning(net, {0, 1, 2}), 0, 1, 1000) is None
    # A shunned link is below even a demand of nothing.
    assert shortest_feasible_path(_shunning(net, {0, 1, 2}), 0, 1, 0) is None


def test_same_endpoint_path_is_empty():
    net = _parallel_pair()
    assert shortest_feasible_path(net, 0, 0, 1000) == []
    assert enumerate_simple_paths(net, 1, 1, 1000) == [[]]


def test_unknown_nodes_raise():
    net = _parallel_pair()
    with pytest.raises(SimulatorError, match="unknown node in path query: 0 -> 9"):
        shortest_feasible_path(net, 0, 9, 1000)
    with pytest.raises(SimulatorError, match="unknown node in path query: 9 -> 0"):
        enumerate_simple_paths(net, 9, 0, 1000)


def test_latency_beats_hop_count():
    nodes = [
        NodeSpec(0, NodeKind.ENDPOINT),
        NodeSpec(1, NodeKind.SWITCH),
        NodeSpec(2, NodeKind.ENDPOINT),
    ]
    links = [
        LinkSpec(0, 0, 2, bandwidth_kbps=1000, latency_ms=30.0),
        LinkSpec(1, 0, 1, bandwidth_kbps=1000, latency_ms=5.0),
        LinkSpec(2, 1, 2, bandwidth_kbps=1000, latency_ms=5.0),
    ]
    net = NetworkState(nodes, links)
    assert shortest_feasible_path(net, 0, 2, 500) == [1, 2]


def test_a_float_latency_tie_falls_to_fewer_hops():
    # One-decimal latencies summed in path order can tie exactly as floats:
    # 6.7 + 9.0 + 9.0 == 3.6 + 6.3 + 6.8 + 8.0 == 24.7, a tie over 3 and 4
    # hops that the benchmark sweeps hold. Summed in reverse, the 4-hop route
    # comes to 24.700000000000003, so only path order makes the tie. Its
    # links have the smaller ids, so only the hop count picks the 3-hop route.
    nodes = [NodeSpec(0, NodeKind.ENDPOINT), NodeSpec(1, NodeKind.ENDPOINT)]
    nodes += [NodeSpec(node_id, NodeKind.SWITCH) for node_id in range(2, 7)]
    four = [(0, 4, 3.6), (4, 5, 6.3), (5, 6, 6.8), (6, 1, 8.0)]
    three = [(0, 2, 6.7), (2, 3, 9.0), (3, 1, 9.0)]
    links = [
        LinkSpec(link_id, a, b, bandwidth_kbps=1000, latency_ms=latency)
        for link_id, (a, b, latency) in enumerate(four + three)
    ]
    net = NetworkState(nodes, links)
    four_hops, three_hops = path_key(net, [0, 1, 2, 3]), path_key(net, [4, 5, 6])
    assert four_hops[0] == three_hops[0] == 24.7
    assert three_hops < four_hops
    assert shortest_feasible_path(net, 0, 1, 500) == [4, 5, 6]
    assert shortest_path_tree(net, 0, 500)[1] == three_hops


def test_shortest_respects_quality_overrides():
    net = square_network()
    assert shortest_feasible_path(net, 0, 3, 1000) == [0, 2]
    net.degrade_link(0, latency_ms=100.0)
    assert shortest_feasible_path(net, 0, 3, 1000) == [1, 3]


def test_failed_host_never_relays():
    net = square_network()
    net.fail_host(1)
    assert shortest_feasible_path(net, 0, 3, 1000) == [1, 3]
    # The failed host is still reachable as a destination.
    assert shortest_feasible_path(net, 0, 1, 1000) == [0]
    assert enumerate_simple_paths(net, 0, 3, 1000) == [[1, 3]]


def test_enumeration_lists_every_simple_path():
    net = square_network()
    paths = enumerate_simple_paths(net, 0, 3, 1000)
    assert sorted(paths) == [[0, 2], [1, 3]]
    wide = enumerate_simple_paths(_parallel_pair(), 0, 1, 1000)
    assert sorted(wide) == [[0], [1], [2]]


def test_enumeration_overflow_raises():
    net = square_network()
    with pytest.raises(SimulatorError, match="more than 1 simple paths between 0 and 3"):
        enumerate_simple_paths(net, 0, 3, 1000, max_paths=1)


def test_path_key_orders_by_latency_hops_links():
    net = _parallel_pair()
    assert path_key(net, [0]) == (10.0, 1, (0,))
    assert path_key(net, [0]) < path_key(net, [2]) < path_key(net, [1])


def test_dijkstra_agrees_with_enumeration_on_random_graphs():
    rng = Random(0xC0FFEE)
    compared = 0
    for _ in range(80):
        net = random_network(rng, n_endpoints=2, n_hosts=2, n_switches=1, extra_links=3)
        node_ids = sorted(net.nodes)
        src, dst = rng.sample(node_ids, 2)
        bw = rng.randint(1, 8) * 1000
        best = shortest_feasible_path(net, src, dst, bw)
        everything = enumerate_simple_paths(net, src, dst, bw, max_paths=5000)
        if best is None:
            assert everything == []
            continue
        keys = sorted(path_key(net, path) for path in everything)
        assert path_key(net, best) == keys[0]
        compared += 1
    assert compared >= 40  # most random instances must actually connect


def _perturbed_network(rng: Random, **sizes):
    """A random substrate with one failed host and one degraded link."""
    net = random_network(rng, **sizes)
    net.fail_host(rng.choice(net.host_ids))
    net.degrade_link(
        rng.choice(sorted(net.links)), latency_ms=round(rng.uniform(0.5, 40.0), 1)
    )
    return net


def _check_tree_against_queries(net, rng: Random, exhaustive: bool) -> int:
    """Compare every node's tree entry with a per-target query; count answers."""
    bw = rng.randint(1, 9) * 1000
    net = _shunning(net, rng.sample(sorted(net.links), rng.randint(0, 2)))
    answered = 0
    for src in sorted(net.nodes):
        tree = shortest_path_tree(net, src, bw)
        assert tree[src] == (0.0, 0, ())
        assert set(tree) <= set(net.nodes)
        for node in sorted(net.nodes):
            if node == src:
                continue
            path = shortest_feasible_path(net, src, node, bw)
            if path is None:
                assert node not in tree
            else:
                assert tree[node] == path_key(net, path)
                answered += 1
            if exhaustive:
                everything = enumerate_simple_paths(net, src, node, bw, max_paths=5000)
                keys = [path_key(net, each) for each in everything]
                assert tree.get(node) == (min(keys) if keys else None)
    return answered


def test_tree_matches_every_per_target_query_and_the_enumeration():
    rng = Random(0x7EE)
    answered = 0
    for _ in range(60):
        net = _perturbed_network(
            rng, n_endpoints=2, n_hosts=3, n_switches=1, extra_links=3
        )
        answered += _check_tree_against_queries(net, rng, exhaustive=True)
    for _ in range(20):
        net = _perturbed_network(
            rng, n_endpoints=3, n_hosts=6, n_switches=3, extra_links=8
        )
        answered += _check_tree_against_queries(net, rng, exhaustive=False)
    assert answered >= 2000  # most queries must actually find a path


def test_tree_on_a_planning_view_reads_its_bandwidth_deltas():
    rng = Random(0xB0B)
    for _ in range(20):
        net = _perturbed_network(rng, n_hosts=4, n_switches=2, extra_links=5)
        view = ResourceView(net)
        for link_id in rng.sample(sorted(net.links), 3):
            view.residual_bw[link_id] -= rng.randint(1, 6) * 1000
        _check_tree_against_queries(view, rng, exhaustive=False)


def test_tree_of_an_unknown_source_raises():
    net = _parallel_pair()
    with pytest.raises(SimulatorError, match="unknown node in path query: 9"):
        shortest_path_tree(net, 9, 1000)
    assert shortest_path_tree(net, 0, 6000) == {0: (0.0, 0, ()), 1: (10.0, 1, (2,))}


def test_tree_and_query_match_the_enumeration_under_heavy_ties():
    # Latencies of 1 or 2 ms make labels that tie on (latency, hops) but
    # differ in link sequence common, so the link-sequence tie-break decides
    # many answers; a search that prunes before comparing sequences must
    # still pick the smallest.
    rng = Random(0x71E5)
    answered = tied = 0
    for _ in range(80):
        net = random_network(
            rng,
            n_endpoints=2,
            n_hosts=3,
            n_switches=2,
            extra_links=5,
            latency_choices=(1.0, 2.0),
        )
        net.fail_host(rng.choice(net.host_ids))
        view = ResourceView(net)
        for link_id in rng.sample(sorted(net.links), 4):
            view.residual_bw[link_id] += rng.choice((-1, 1)) * rng.randint(1, 6) * 1000
        bw = rng.randint(1, 6) * 1000
        exclude = rng.sample(sorted(net.links), rng.randint(0, 2))
        for searched in (_shunning(net, exclude), _shunning(view, exclude)):
            for src in sorted(net.nodes):
                tree = shortest_path_tree(searched, src, bw)
                for dst in sorted(net.nodes):
                    if dst == src:
                        continue
                    everything = enumerate_simple_paths(searched, src, dst, bw, max_paths=5000)
                    keys = sorted(path_key(searched, path) for path in everything)
                    best = keys[0] if keys else None
                    assert tree.get(dst) == best
                    path = shortest_feasible_path(searched, src, dst, bw)
                    assert (None if path is None else path_key(searched, path)) == best
                    if keys:
                        answered += 1
                        tied += len(keys) > 1 and keys[1][:2] == keys[0][:2]
    assert answered >= 4000  # most queries must actually find a path
    assert tied >= 500  # and many must be settled by the link-sequence tie-break


def test_a_bounded_tree_is_the_full_tree_up_to_the_nearest_target_tier():
    # The bounded search settles nodes in the full search's order and stops
    # either with every target settled or before the first node farther
    # than the nearest target; with no target reachable it runs to the end.
    rng = Random(0x5707)
    bounded_short = 0
    for _ in range(60):
        net = random_network(
            rng,
            n_endpoints=2,
            n_hosts=5,
            n_switches=2,
            extra_links=6,
            latency_choices=(1.0, 2.0),
        )
        net.fail_host(rng.choice(net.host_ids))
        bw = rng.randint(1, 6) * 1000
        net = _shunning(net, rng.sample(sorted(net.links), rng.randint(0, 3)))
        for src in sorted(net.nodes):
            targets = set(rng.sample(sorted(net.nodes), rng.randint(1, 4)))
            full = shortest_path_tree(net, src, bw)
            bounded = shortest_path_tree(net, src, bw, targets)
            assert list(bounded.items()) == list(full.items())[: len(bounded)]
            reached = [full[node][0] for node in targets if node in full]
            if not reached:
                assert bounded == full
                continue
            nearest = min(reached)
            assert all(label[0] <= nearest for label in bounded.values())
            tier = {node for node in targets & set(full) if full[node][0] == nearest}
            assert tier <= set(bounded)
            if len(bounded) < len(full) and not targets & set(full) <= set(bounded):
                # Stopped by the bound, so the next node is past the tier.
                assert list(full.values())[len(bounded)][0] > nearest
                bounded_short += 1
    assert bounded_short >= 200  # the latency bound, not the target count, often stops it


def test_the_floor_tree_keeps_a_float_tie_at_fewer_hops():
    # The 24.7 ms tie above, with the 3-hop route brought to it by
    # degradations below its base latencies. Each lowers a floor and drops
    # the floor trees; the tree built after the last must hold the 3-hop
    # route, as the search does.
    nodes = [NodeSpec(0, NodeKind.ENDPOINT), NodeSpec(1, NodeKind.ENDPOINT)]
    nodes += [NodeSpec(node_id, NodeKind.SWITCH) for node_id in range(2, 7)]
    four = [(0, 4, 3.6), (4, 5, 6.3), (5, 6, 6.8), (6, 1, 8.0)]
    three = [(0, 2, 7.0), (2, 3, 9.5), (3, 1, 9.5)]
    links = [
        LinkSpec(link_id, a, b, bandwidth_kbps=1000, latency_ms=latency)
        for link_id, (a, b, latency) in enumerate(four + three)
    ]
    net = NetworkState(nodes, links)
    for link_id, latency in ((4, 6.7), (5, 9.0), (6, 9.0)):
        assert shortest_feasible_path(net, 0, 1, 500) == [0, 1, 2, 3]
        net.degrade_link(link_id, latency_ms=latency)
        assert net.floor.trees == {}
    three_hops = path_key(net, [4, 5, 6])
    assert three_hops[0] == path_key(net, [0, 1, 2, 3])[0] == 24.7
    assert floor_tier(net, 0, 500, {1}.__contains__) == {1: three_hops}
    assert shortest_feasible_path(net, 0, 1, 500) == [4, 5, 6]
    # Above its floor, link 4 is not clean and the search takes the 4-hop
    # route; back at its floor, the kept tree answers again.
    net.degrade_link(4, latency_ms=20.0)
    assert floor_tier(net, 0, 500, {1}.__contains__) is None
    assert shortest_feasible_path(net, 0, 1, 500) == [0, 1, 2, 3]
    net.degrade_link(4, latency_ms=6.7)
    assert floor_tier(net, 0, 500, {1}.__contains__) == {1: three_hops}
    assert shortest_feasible_path(net, 0, 1, 500) == [4, 5, 6]


def _degrade_some(net, rng: Random) -> None:
    """Degrade two links to within 0.3x to 2x of base, and put one back at its floor."""
    for link_id in rng.sample(sorted(net.links), 2):
        base = net.links[link_id].latency_ms
        net.degrade_link(link_id, latency_ms=round(base * rng.uniform(0.3, 2.0), 1))
    link_id = rng.choice(sorted(net.links))
    net.degrade_link(link_id, latency_ms=net.floor.quality[link_id].latency_ms)


def test_floor_answers_match_the_search_and_the_enumeration():
    # Latencies at 0.1 ms resolution, so float sums tie exactly, degraded
    # above and below base over three rounds that keep the floor trees
    # between them; a failed relay, shunned links and bandwidth that binds.
    # A query's floor answer, when clean, must be the bounded search's, and
    # on the small networks the enumeration's best; a placement tier read
    # off the floor tree must be the targets a bounded search settles at
    # the nearest latency.
    rng = Random(0xF1002)
    clean = fallback = tiers = 0
    for case in range(60):
        small = case < 40
        if small:
            net = random_network(rng, n_endpoints=2, n_hosts=3, n_switches=1, extra_links=3)
        else:
            net = random_network(rng, n_endpoints=3, n_hosts=6, n_switches=3, extra_links=8)
        net.fail_host(rng.choice(net.host_ids))
        for _ in range(3):
            _degrade_some(net, rng)
            view = ResourceView(net)
            for link_id in rng.sample(sorted(net.links), 3):
                view.residual_bw[link_id] -= rng.randint(1, 6) * 1000
            for link_id in rng.sample(sorted(net.links), rng.randint(0, 2)):
                view.residual_bw[link_id] = -1
            bw = rng.randint(1, 6) * 1000
            for src in sorted(net.nodes):
                for dst in sorted(net.nodes):
                    if dst == src:
                        continue
                    search = shortest_path_tree(view, src, bw, (dst,)).get(dst)
                    path = shortest_feasible_path(view, src, dst, bw)
                    assert (None if path is None else path_key(view, path)) == search
                    floor = floor_tier(view, src, bw, {dst}.__contains__)
                    if floor is None:
                        fallback += 1
                    else:
                        assert floor == ({} if search is None else {dst: search})
                        clean += search is not None
                    if small:
                        everything = enumerate_simple_paths(view, src, dst, bw, max_paths=5000)
                        keys = [path_key(view, each) for each in everything]
                        assert search == (min(keys) if keys else None)
                targets = set(rng.sample(sorted(net.nodes), rng.randint(1, 4)))
                floor = floor_tier(view, src, bw, targets.__contains__)
                if floor is not None:
                    bounded = shortest_path_tree(view, src, bw, targets)
                    reached = {node: bounded[node] for node in targets & set(bounded)}
                    nearest = min((label[0] for label in reached.values()), default=None)
                    assert floor == {n: label for n, label in reached.items() if label[0] == nearest}
                    tiers += floor != {}
    assert clean >= 3000  # many answers come off the floor tree
    assert fallback >= 5000  # and many floor answers are not clean
    assert tiers >= 600  # and many placement tiers are clean
