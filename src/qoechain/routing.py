"""Path search over the substrate.

Paths are link-id sequences, which disambiguates parallel links between the
same node pair. A path's cost key is (total latency, hop count, link-id
sequence); comparing full keys makes every choice a total order and keeps
runs reproducible. Failed hosts never appear as interior nodes.

One Dijkstra loop (`_settle`), one plain call, serves both callers with one
stop rule: given target nodes, it stops once all are settled or at the first
popped key whose latency is strictly above that of the first target settled.
`shortest_feasible_path` passes its destination; host placement passes the
hosts that fit, since a host farther than the nearest one cannot win while
every host tied with it is still settled. Without targets the search settles
every reachable node. A settled node's label is the one a full search gives:
the key is a total order, and appending the same link to two paths that end
at the same node keeps their order, so a label is final when first popped.
Latency is summed along the path from 0.0 in path order, as
`oracle.path_key` sums it, so even the floats agree.

The loop reads each node's (link id, neighbour, latency) tuples from the
state's `edges` and each link's `residual_bw` inline, without calling an
accessor per edge; a planning view's residuals are its own copies, with
the plan's pending demand already taken out and any link it shuns set
below every demand. A candidate whose neighbour already holds a label
better on (latency, hops) is dropped before its link tuple is built; only
a tie on both compares link sequences.

Most queries are answered without a search, from the source's floor tree:
`_settle` run once over the state's `Floor`, where each link has its floor
latency (the lowest it has held), every link is open and every node
relays. `Floor.lower` is the only code that writes a floor, and
`degrade_link`, the only change of link quality, calls it with every new
latency, so no link's current latency is ever below its floor. Lowering
one drops every tree; the state keeps each tree until then. A
floor label is clean in a view when each of its links is at its floor
latency now and has a residual covering the demand (so a shunned link
never is), and no failed host relays on it. A clean label is the answer
the search would give, floats included:
- A path's current key is at least its floor key. Both latency sums run
  in path order from 0.0, each current link latency is at least its
  floor, and rounded addition is monotone; hops and links are the same.
- A clean label's current key equals its floor key, which is the least
  floor key of any path to its node. So no path has a smaller current
  key, and since the label is feasible it is the key-min that `_settle`
  returns.
- For placement, the answer is the tier of targets at the nearest floor
  latency. When each of them is clean, that tier is exactly the targets a
  bounded search settles, with the same labels: each is at its floor key,
  and any other target reachable at all has current latency at least its
  floor latency, which is above the tier's.
A node missing from the floor tree is unreachable in any view. A query
whose floor answer is not clean falls back to the search.
"""

from __future__ import annotations

from collections.abc import Collection
from heapq import heappop, heappush

from .errors import SimulatorError

PathKey = tuple[float, int, tuple[int, ...]]


def _settle(net, src: int, bw_kbps: int, targets: Collection[int] = ()) -> dict[int, PathKey]:
    """Final keys of the nodes reachable from src, in ascending key order.

    A link is feasible when its residual bandwidth covers bw_kbps. The
    search stops once every target is settled, or before settling a node
    farther than the first target settled.
    """
    edges = net.edges
    residual_bw = net.residual_bw
    failed_hosts = net.failed_hosts
    best: dict[int, PathKey] = {src: (0.0, 0, ())}
    done: dict[int, PathKey] = {}
    heap: list[tuple[float, int, tuple[int, ...], int]] = [(0.0, 0, (), src)]
    # Targets settle in latency order, so each one settled sets the same bound.
    bound, unsettled = float("inf"), len(targets)
    while heap:
        latency, hops, links, node = heappop(heap)
        if latency > bound:
            break
        if node in done:
            continue
        done[node] = (latency, hops, links)
        if node in targets:
            bound, unsettled = latency, unsettled - 1
            if not unsettled:
                break
        # Failed hosts may terminate a path but never relay one.
        if node != src and node in failed_hosts:
            continue
        next_hops = hops + 1
        for link_id, neighbor, link_latency in edges[node]:
            if neighbor in done or residual_bw[link_id] < bw_kbps:
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
    net, src: int, bw_kbps: int, targets: Collection[int] = ()
) -> dict[int, PathKey]:
    """Key of the minimum-latency feasible path from src to every reachable node.

    Same feasibility and tie-break rules as shortest_feasible_path; src maps
    to (0.0, 0, ()) and unreachable nodes are absent; with targets, so are
    the nodes past _settle's stop. `net` is a NetworkState or a planning
    view of one.
    """
    if src not in net.nodes:
        msg = f"unknown node in path query: {src}"
        raise SimulatorError(msg)
    return _settle(net, src, bw_kbps, targets)


def _floor_tree(net, src: int) -> dict[int, PathKey]:
    """src's floor tree: the key of every node over floor latencies, built once."""
    floor = net.floor
    tree = floor.trees.get(src)
    if tree is None:
        tree = floor.trees[src] = _settle(floor, src, 0)
    return tree


def _clean(net, src: int, links: tuple[int, ...], bw_kbps: int) -> bool:
    """Whether the floor route links from src is open in net at its floor latency."""
    residual_bw, quality, floor_latency = net.residual_bw, net.quality, net.floor.latency
    for link_id in links:
        if residual_bw[link_id] < bw_kbps or quality[link_id].latency_ms != floor_latency[link_id]:
            return False
    failed_hosts = net.failed_hosts
    if failed_hosts:
        node = src
        for link_id in links[:-1]:
            node = net.links[link_id].other(node)
            if node in failed_hosts:
                return False
    return True


def floor_tier(
    net, src: int, bw_kbps: int, targets: Collection[int]
) -> dict[int, PathKey] | None:
    """Keys of the targets nearest src, read off the floor tree, or None.

    The tier is the targets at the nearest floor latency, empty when none
    is reachable. It is the answer when each of them is clean, and None
    says that one is not, so the caller searches instead.
    """
    tier: dict[int, PathKey] = {}
    nearest = float("inf")
    for node, label in _floor_tree(net, src).items():
        if label[0] > nearest:
            break
        if node in targets:
            if not _clean(net, src, label[2], bw_kbps):
                return None
            nearest = label[0]
            tier[node] = label
    return tier


def shortest_feasible_path(net, src: int, dst: int, bw_kbps: int) -> list[int] | None:
    """Minimum-latency simple path from src to dst over feasible links.

    A link is feasible when its residual bandwidth covers bw_kbps; a
    planning view shuns a link by giving it a residual below any demand.
    Ties fall to fewer hops, then to the lexicographically smallest link-id
    sequence. Returns [] when src == dst and None when no feasible path
    exists. `net` is a NetworkState or a planning view of one. The floor
    answer is returned when it is clean, and a search runs otherwise.
    """
    if src not in net.nodes or dst not in net.nodes:
        msg = f"unknown node in path query: {src} -> {dst}"
        raise SimulatorError(msg)
    if src == dst:
        return []
    label = _floor_tree(net, src).get(dst)
    if label is not None and not _clean(net, src, label[2], bw_kbps):
        label = _settle(net, src, bw_kbps, (dst,)).get(dst)
    return None if label is None else list(label[2])
