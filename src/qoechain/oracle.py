"""The exhaustive oracle: reference answers for the router and the embedder.

Nothing here runs during a simulation. `enumerate_simple_paths` lists every
feasible simple path between two nodes and `exact_embed` searches every
placement and path choice for a request, so tests can check that the
router's Dijkstra loop finds a minimum-key path and that a greedy admission
is always contained in an exhaustive one; `qoechain oracle` prints the
exhaustive embedding of one request. Both refuse loudly, with a
SimulatorError, where an exhaustive search would not be small: above
MAX_HOSTS hosts, MAX_CHAIN VNFs or MAX_PATHS_PER_PAIR paths between two
nodes.

`enumerate_simple_paths` walks the state's `edges`, the topology table
the routing loop also reads, but shares neither the loop's algorithm nor
its latency reads: it lists paths depth-first, and `path_key` sums each
path's latency from `quality` itself. Bandwidth and host capacity are the
`residual_*` tables, a planning view's own copies when given one.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .errors import SimulatorError
from .qoe import predict_mos
from .routing import PathKey
from .service import ChainRequest, ForwardingGraph, LinkPath, ServiceCatalog, path_metrics

# Hard bounds above which exact_embed refuses to run.
MAX_HOSTS = 6
MAX_CHAIN = 3
MAX_PATHS_PER_PAIR = 100


def path_key(net, path: Iterable[int]) -> PathKey:
    """Cost key of a link path under the current link quality."""
    links = tuple(path)
    latency = 0.0
    for link_id in links:
        latency += net.quality[link_id].latency_ms
    return (latency, len(links), links)


def enumerate_simple_paths(
    net,
    src: int,
    dst: int,
    bw_kbps: int,
    max_paths: int | None = None,
) -> list[list[int]]:
    """All simple paths (no repeated node) from src to dst over feasible links.

    The exhaustive counterpart of shortest_feasible_path. Paths come out in
    depth-first link-id order. With max_paths set, finding more than that
    raises a SimulatorError instead of silently truncating, which would
    quietly bias any comparison built on top.
    """
    if src not in net.nodes or dst not in net.nodes:
        msg = f"unknown node in path query: {src} -> {dst}"
        raise SimulatorError(msg)
    if src == dst:
        return [[]]

    paths: list[list[int]] = []

    def extend(node: int, visited: set[int], trail: list[int]) -> None:
        if node != src and node in net.failed_hosts:
            return
        for link_id, neighbor in net.edges[node]:
            if net.residual_bw[link_id] < bw_kbps or neighbor in visited:
                continue
            trail.append(link_id)
            if neighbor == dst:
                paths.append(list(trail))
                if max_paths is not None and len(paths) > max_paths:
                    msg = f"more than {max_paths} simple paths between {src} and {dst}"
                    raise SimulatorError(msg)
            else:
                visited.add(neighbor)
                extend(neighbor, visited, trail)
                visited.remove(neighbor)
            trail.pop()

    extend(src, {src}, [])
    return paths


def exact_embed(
    network,
    catalog: ServiceCatalog,
    request: ChainRequest,
) -> ForwardingGraph | None:
    """Exhaustive minimum-latency embedding, or None when infeasible.

    Enumerates every placement assignment and every simple-path choice
    per segment, subject to aggregate bandwidth feasibility and the same
    admission rule as Controller.admit. Never reserves anything. Raises a
    SimulatorError beyond the module's limits; refusing loudly beats a
    silently truncated search.
    """
    bw_kbps = catalog.profile(request.profile).bw_req_kbps
    chain = [catalog.vnf(name) for name in request.vnf_sequence]
    hosts = network.host_ids
    if len(hosts) > MAX_HOSTS:
        msg = f"{len(hosts)} hosts exceeds oracle limit {MAX_HOSTS}"
        raise SimulatorError(msg)
    if len(chain) > MAX_CHAIN:
        msg = f"chain length {len(chain)} exceeds oracle limit {MAX_CHAIN}"
        raise SimulatorError(msg)
    usable = [h for h in hosts if h not in network.failed_hosts]
    proc_total = sum(vnf.proc_latency_ms for vnf in chain)

    path_cache: dict[tuple[int, int], list[tuple[float, list[int]]]] = {}

    def paths_between(a: int, b: int) -> list[tuple[float, list[int]]]:
        if (a, b) not in path_cache:
            raw = enumerate_simple_paths(network, a, b, bw_kbps, max_paths=MAX_PATHS_PER_PAIR)
            keyed = sorted((path_key(network, path), path) for path in raw)
            path_cache[(a, b)] = [(key[0], path) for key, path in keyed]
        return path_cache[(a, b)]

    best: tuple | None = None  # (latency, hosts, flat links, segments)
    chosen: list[LinkPath] = []

    def feasible(usage: dict[int, int]) -> bool:
        return all(kbps <= network.residual_bw[link_id] for link_id, kbps in usage.items())

    def dfs(assignment, options, index: int, latency: float, usage: dict[int, int]):
        """Depth-first choice of one path per segment, bounded by best latency."""
        nonlocal best
        if best is not None and latency + proc_total > best[0]:
            return
        if index == len(options):
            segments = tuple(chosen)
            predicted, _ = predict_mos(request, segments, network, catalog)
            if predicted.mos < request.ela_target:
                return
            flat = tuple(link_id for segment in segments for link_id in segment)
            key = (latency + proc_total, tuple(assignment), flat, segments)
            if best is None or key < best:
                best = key
            return
        for seg_latency, path in options[index]:
            new_usage = dict(usage)
            for link_id in path:
                new_usage[link_id] = new_usage.get(link_id, 0) + bw_kbps
            if not feasible(new_usage):
                continue
            chosen.append(tuple(path))
            dfs(assignment, options, index + 1, latency + seg_latency, new_usage)
            chosen.pop()

    for assignment in itertools.product(usable, repeat=len(chain)):
        cpu_need: dict[int, int] = {}
        mem_need: dict[int, int] = {}
        for vnf, host_id in zip(chain, assignment):
            cpu_need[host_id] = cpu_need.get(host_id, 0) + vnf.cpu_demand
            mem_need[host_id] = mem_need.get(host_id, 0) + vnf.mem_demand
        if any(
            cpu_need[h] > network.residual_cpu[h] or mem_need[h] > network.residual_mem[h]
            for h in cpu_need
        ):
            continue
        points = [request.ingress, *assignment, request.egress]
        options = [paths_between(points[i], points[i + 1]) for i in range(len(points) - 1)]
        if any(not segment_options for segment_options in options):
            continue
        dfs(assignment, options, 0, 0.0, {})

    if best is None:
        return None
    _, assignment, _, segments = best
    return ForwardingGraph(hosts=assignment, segments=segments, reserved_bw_kbps=bw_kbps)


def graph_latency(
    network, catalog: ServiceCatalog, graph: ForwardingGraph, request: ChainRequest
) -> float:
    """End-to-end latency of an embedding, processing included."""
    return path_metrics(
        graph.segments, network, catalog.proc_latencies(request.vnf_sequence)
    ).latency_ms
