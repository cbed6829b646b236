"""Path search over the substrate.

Paths are link-id sequences, which disambiguates parallel links between the
same node pair. A path's cost key is (total latency, hop count, link-id
sequence); comparing full keys makes every choice a total order and keeps
runs reproducible. Failed hosts never appear as interior nodes.

One Dijkstra loop (`_settle`) serves two callers. It is one plain call, not
a generator, that returns the settled labels and stops once an optional
target is settled. `shortest_path_tree` runs it to the end and keys every
reachable node from one source, which is what host placement needs: one
search per anchor instead of one per candidate host.
`shortest_feasible_path` stops it at the target. Both give the same answer
for every node: the key is a total order, and appending the same link to
two paths that end at the same node keeps their order, so a node's label
is final when it is first popped, whether or not the search goes on
afterwards. Latency is summed along the path from 0.0 in path order, as
`path_key` sums it, so even the floats agree.

The loop reads each node's (link id, neighbour, latency) tuples from the
state's `edges` and the bandwidth as residual plus pending delta, without
calling an accessor per edge. A candidate whose neighbour already holds a
label better on (latency, hops) is dropped before its link tuple is built;
only a tie on both compares link sequences. `enumerate_simple_paths` and
`path_key` read `adjacency` and `link_quality` instead, so the oracle does
not share the loop's inputs.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable

from .errors import InstanceTooLarge, UnknownHost

PathKey = tuple[float, int, tuple[int, ...]]


def path_key(net, path: Iterable[int]) -> PathKey:
    """Cost key of a link path under the current quality overrides."""
    links = tuple(path)
    latency = 0.0
    for link_id in links:
        latency += net.link_quality(link_id).latency_ms
    return (latency, len(links), links)


def _settle(
    net,
    src: int,
    bw_kbps: int,
    exclude_links: frozenset[int],
    dst: int | None = None,
) -> dict[int, PathKey]:
    """Final keys of the nodes reachable from src, in ascending key order.

    A link is feasible when its available bandwidth covers bw_kbps and it is
    not excluded. The search stops once dst, if given, is settled.
    """
    edges = net.edges
    residual_bw = net.residual_bw
    pending_bw = net.bw_delta.get
    failed_hosts = net.failed_hosts
    best: dict[int, PathKey] = {src: (0.0, 0, ())}
    done: dict[int, PathKey] = {}
    heap: list[tuple[float, int, tuple[int, ...], int]] = [(0.0, 0, (), src)]
    while heap:
        latency, hops, links, node = heappop(heap)
        if node in done:
            continue
        done[node] = (latency, hops, links)
        if node == dst:
            break
        # Failed hosts may terminate a path but never relay one.
        if node != src and node in failed_hosts:
            continue
        next_hops = hops + 1
        for link_id, neighbor, link_latency in edges[node]:
            if (
                neighbor in done
                or link_id in exclude_links
                or residual_bw[link_id] + pending_bw(link_id, 0) < bw_kbps
            ):
                continue
            next_latency = latency + link_latency
            label = best.get(neighbor)
            if label is not None:
                # Only a tie on (latency, hops) needs the link sequences.
                if label[0] < next_latency:
                    continue
                if label[0] == next_latency:
                    if label[1] < next_hops:
                        continue
                    if label[1] == next_hops and label[2] <= links + (link_id,):
                        continue
            next_links = links + (link_id,)
            best[neighbor] = (next_latency, next_hops, next_links)
            heappush(heap, (next_latency, next_hops, next_links, neighbor))
    return done


def shortest_path_tree(
    net,
    src: int,
    bw_kbps: int,
    exclude_links: frozenset[int] = frozenset(),
) -> dict[int, PathKey]:
    """Key of the minimum-latency feasible path from src to every reachable node.

    Same feasibility and tie-break rules as shortest_feasible_path; src maps
    to (0.0, 0, ()) and unreachable nodes are absent. `net` is a
    NetworkState or a planning view of one.
    """
    if src not in net.nodes:
        msg = f"unknown node in path query: {src}"
        raise UnknownHost(msg)
    return _settle(net, src, bw_kbps, exclude_links)


def shortest_feasible_path(
    net,
    src: int,
    dst: int,
    bw_kbps: int,
    exclude_links: frozenset[int] = frozenset(),
) -> list[int] | None:
    """Minimum-latency simple path from src to dst over feasible links.

    A link is feasible when its available bandwidth covers bw_kbps and it is
    not excluded. Ties fall to fewer hops, then to the lexicographically
    smallest link-id sequence. Returns [] when src == dst and None when no
    feasible path exists. `net` is a NetworkState or a planning view of one.
    """
    if src not in net.nodes or dst not in net.nodes:
        msg = f"unknown node in path query: {src} -> {dst}"
        raise UnknownHost(msg)
    if src == dst:
        return []
    label = _settle(net, src, bw_kbps, exclude_links, dst).get(dst)
    return None if label is None else list(label[2])


def enumerate_simple_paths(
    net,
    src: int,
    dst: int,
    bw_kbps: int,
    exclude_links: frozenset[int] = frozenset(),
    max_paths: int | None = None,
) -> list[list[int]]:
    """All simple paths (no repeated node) from src to dst over feasible links.

    The exhaustive counterpart of shortest_feasible_path, used by oracles.
    Paths come out in depth-first link-id order. With max_paths set, finding
    more than that raises InstanceTooLarge instead of silently truncating,
    which would quietly bias any comparison built on top.
    """
    if src not in net.nodes or dst not in net.nodes:
        msg = f"unknown node in path query: {src} -> {dst}"
        raise UnknownHost(msg)
    if src == dst:
        return [[]]

    paths: list[list[int]] = []

    def extend(node: int, visited: set[int], trail: list[int]) -> None:
        if node != src and node in net.failed_hosts:
            return
        for link_id in net.adjacency(node):
            if link_id in exclude_links:
                continue
            if net.available_bw(link_id) < bw_kbps:
                continue
            neighbor = net.links[link_id].other(node)
            if neighbor in visited:
                continue
            trail.append(link_id)
            if neighbor == dst:
                paths.append(list(trail))
                if max_paths is not None and len(paths) > max_paths:
                    msg = f"more than {max_paths} simple paths between {src} and {dst}"
                    raise InstanceTooLarge(msg)
            else:
                visited.add(neighbor)
                extend(neighbor, visited, trail)
                visited.remove(neighbor)
            trail.pop()

    extend(src, {src}, [])
    return paths
