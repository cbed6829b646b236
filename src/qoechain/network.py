"""Substrate network model.

The substrate is an undirected graph of compute hosts, switches and traffic
endpoints. Each link carries one shared bandwidth pool plus quality
figures: a PathMetrics (latency, jitter, loss), the one type for a link's
figures and a path's, that fault injection may override at run time.
Reservations mutate integer residual counters; every mutating
operation either applies completely or not at all. The network counts what
is left; which flow holds what is recorded in the VNF database.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, NamedTuple

from .errors import InvalidRange, InvariantViolation, SimulatorError


class NodeKind(str, Enum):
    HOST = "host"
    SWITCH = "switch"
    ENDPOINT = "endpoint"


@dataclass(frozen=True)
class NodeSpec:
    """A substrate node. Only hosts may carry CPU or memory capacity."""

    id: int
    kind: NodeKind
    cpu_capacity: int = 0
    mem_capacity: int = 0

    def __post_init__(self):
        if self.id < 0:
            msg = f"node id must be non-negative, got {self.id}"
            raise InvalidRange(msg, field="id")
        if self.cpu_capacity < 0 or self.mem_capacity < 0:
            msg = f"node {self.id}: capacities must be non-negative"
            raise InvalidRange(msg)
        if self.kind is not NodeKind.HOST and (self.cpu_capacity or self.mem_capacity):
            msg = f"node {self.id}: only hosts may have cpu/mem capacity"
            raise InvalidRange(msg)


@dataclass(frozen=True)
class LinkSpec:
    """A bidirectional link with one bandwidth pool shared by both directions.

    bandwidth_kbps is the capacity in integer kbps (0.001 Mbps resolution).
    """

    id: int
    a: int
    b: int
    bandwidth_kbps: int
    latency_ms: float
    jitter_ms: float = 0.0
    loss_pct: float = 0.0

    def __post_init__(self):
        if self.id < 0:
            msg = f"link id must be non-negative, got {self.id}"
            raise InvalidRange(msg, field="id")
        if self.a == self.b:
            msg = f"link {self.id}: self-loops are not allowed"
            raise InvalidRange(msg)
        if self.bandwidth_kbps <= 0:
            msg = f"link {self.id}: bandwidth must be at least 0.001 Mbps"
            raise InvalidRange(msg, field="bandwidth_kbps")
        check_link_quality(self.id, self.latency_ms, self.jitter_ms, self.loss_pct)

    def other(self, node_id: int) -> int:
        if node_id == self.a:
            return self.b
        if node_id == self.b:
            return self.a
        msg = f"node {node_id} is not an endpoint of link {self.id}"
        raise InvalidRange(msg)


def check_link_quality(
    link_id: int, latency_ms: float = 0.0, jitter_ms: float = 0.0, loss_pct: float = 0.0
) -> None:
    """The rule on link quality figures, for base values and overrides alike.

    Latency and jitter are non-negative and loss is a percentage. A figure
    left at its default is one the caller does not set. A bad latency or
    jitter names no field: a link's diagnostic for it is at the link.
    """
    if latency_ms < 0:
        raise InvalidRange(f"link {link_id}: latency must be non-negative")
    if jitter_ms < 0:
        raise InvalidRange(f"link {link_id}: jitter must be non-negative")
    if not 0 <= loss_pct <= 100:
        msg = f"link {link_id}: loss must be within [0, 100]"
        raise InvalidRange(msg, field="loss_pct")


class PathMetrics(NamedTuple):
    """A path's figures, in the order of a FlowSample's delay, jitter and loss.

    A link's quality is the metrics of the one-link path over it.
    """

    latency_ms: float
    jitter_ms: float
    loss_pct: float


class Floor:
    """The substrate at its floor: what floor trees are searched on.

    A link's floor latency is the lowest latency it has held in this run:
    its base latency until lower, the only writer of a floor, takes a
    lower one. The view's edges carry floor latencies in the state's edge
    order, every residual fits a demand of 0 and no host has failed, so
    every link is open and every node relays. trees maps a source to its
    floor tree, built by routing on first use; lowering a floor drops them
    all.
    """

    def __init__(self, state: NetworkState):
        self.latency: dict[int, float] = {
            link_id: quality.latency_ms for link_id, quality in state.quality.items()
        }
        self.edges = dict(state.edges)
        self.residual_bw: dict[int, int] = dict.fromkeys(state.links, 0)
        self.failed_hosts: frozenset[int] = frozenset()
        self.trees: dict[int, dict] = {}

    def lower(self, link: LinkSpec, latency_ms: float) -> None:
        """Take latency_ms as link's floor if it is below it.

        Lowering refreshes both endpoints' floor edges and drops every
        floor tree; a latency at or above the floor leaves all standing.
        """
        if latency_ms < self.latency[link.id]:
            self.latency[link.id] = latency_ms
            for node_id in (link.a, link.b):
                self.edges[node_id] = tuple(
                    (each, neighbor, self.latency[each])
                    for each, neighbor, _ in self.edges[node_id]
                )
            self.trees.clear()


class NetworkState:
    """Mutable substrate state: residual resources, failures, degradations.

    Mutations are transactional: a rejected reserve or release leaves the
    state bit-identical to what it was before the call.
    """

    def __init__(self, nodes: Iterable[NodeSpec], links: Iterable[LinkSpec]):
        self.nodes: dict[int, NodeSpec] = {}
        for node in nodes:
            if node.id in self.nodes:
                msg = f"duplicate node id {node.id}"
                raise SimulatorError(msg)
            self.nodes[node.id] = node

        self.links: dict[int, LinkSpec] = {}
        for link in links:
            if link.id in self.links:
                msg = f"duplicate link id {link.id}"
                raise SimulatorError(msg)
            for end in (link.a, link.b):
                if end not in self.nodes:
                    msg = f"link {link.id} references unknown node {end}"
                    raise InvalidRange(msg)
            self.links[link.id] = link

        self.residual_cpu: dict[int, int] = {}
        self.residual_mem: dict[int, int] = {}
        for node in self.nodes.values():
            if node.kind is NodeKind.HOST:
                self.residual_cpu[node.id] = node.cpu_capacity
                self.residual_mem[node.id] = node.mem_capacity
        # Hosts never join or leave after construction; a failed one stays listed.
        self.host_ids: tuple[int, ...] = tuple(sorted(self.residual_cpu))
        self.residual_bw: dict[int, int] = {
            link.id: link.bandwidth_kbps for link in self.links.values()
        }
        self.failed_hosts: set[int] = set()
        # Each link's current quality: its LinkSpec figures until degrade_link
        # overwrites them.
        self.quality: dict[int, PathMetrics] = {
            link.id: PathMetrics(link.latency_ms, link.jitter_ms, link.loss_pct)
            for link in self.links.values()
        }

        adj: dict[int, list[int]] = {node_id: [] for node_id in self.nodes}
        for link in self.links.values():
            adj[link.a].append(link.id)
            adj[link.b].append(link.id)
        self.adjacency: dict[int, tuple[int, ...]] = {
            node_id: tuple(sorted(ids)) for node_id, ids in adj.items()
        }
        # What path search reads per node: (link id, neighbour, latency) in
        # adjacency order under the current quality. degrade_link rewrites
        # entries in place, never rebinding the dict, so planning views
        # holding it see every change.
        self.edges: dict[int, tuple[tuple[int, int, float], ...]] = {}
        for node_id in self.nodes:
            self._refresh_edges(node_id)
        self.floor = Floor(self)

    # -- mutations ----------------------------------------------------------

    def reserve(
        self,
        link_demands: Mapping[int, int] | None = None,
        cpu_demands: Mapping[int, int] | None = None,
        mem_demands: Mapping[int, int] | None = None,
    ) -> None:
        """Reserve per-id totals of bandwidth, CPU and memory, all-or-nothing.

        link_demands maps link id to kbps; a link crossed twice by the same
        chain must appear once with the doubled demand. cpu_demands and
        mem_demands map host id to the sum over the VNFs placed there. Who
        holds what is the database's record, not the network's.

        Raises a SimulatorError for an unknown id, a demand that does not
        fit or a failed host, and an InvalidRange for a negative demand. On
        any error the state is left untouched.
        """
        self._ledger_walk(-1, link_demands, cpu_demands, mem_demands)

    def release(
        self,
        link_demands: Mapping[int, int] | None = None,
        cpu_demands: Mapping[int, int] | None = None,
        mem_demands: Mapping[int, int] | None = None,
    ) -> None:
        """Give back per-id totals reserved earlier, all-or-nothing.

        Takes the same maps as reserve; a failed host's holdings are given
        back like any other. Releasing more than is reserved raises an
        InvariantViolation: that always means the caller's ledger and this
        state disagree, which is fatal.
        """
        self._ledger_walk(1, link_demands, cpu_demands, mem_demands)

    def fail_host(self, host_id: int) -> None:
        """Fail-stop a host.

        The host takes no new demand from now on. What it holds stays
        reserved until released like any other holding. Failing an
        already-failed host raises a SimulatorError; failures are explicit
        events, not idempotent updates.
        """
        self._check_host(host_id, allow_failed=True)
        if host_id in self.failed_hosts:
            msg = f"host {host_id} already failed"
            raise SimulatorError(msg)
        self.failed_hosts.add(host_id)

    def degrade_link(
        self,
        link_id: int,
        latency_ms: float | None = None,
        jitter_ms: float | None = None,
        loss_pct: float | None = None,
    ) -> None:
        """Override a link's quality figures; None keeps the current value.

        Capacity is untouched: a degraded link still carries its reserved
        traffic, only worse. Path search reads latency alone, so even at
        loss_pct=100 the link stays in every search: a flow on it scores
        q_loss 0, and only the MOS gate or a breach re-embed's shunned link
        keeps a plan off it; host-failure repair has neither. This is the
        only change of link quality; it refreshes both endpoints' edges,
        and the caller hands the change to Controller.handle_degradation.
        Floor.lower then takes the new latency as the link's floor if it is
        below it.
        """
        if link_id not in self.links:
            msg = f"unknown link {link_id}"
            raise SimulatorError(msg)
        figures = (latency_ms, jitter_ms, loss_pct)
        quality = PathMetrics._make(
            now if given is None else given for now, given in zip(self.quality[link_id], figures)
        )
        check_link_quality(link_id, *quality)
        self.quality[link_id] = quality
        link = self.links[link_id]
        self._refresh_edges(link.a)
        self._refresh_edges(link.b)
        self.floor.lower(link, quality.latency_ms)

    # -- helpers -------------------------------------------------------------

    def _refresh_edges(self, node_id: int) -> None:
        links = self.links
        self.edges[node_id] = tuple(
            (link_id, links[link_id].other(node_id), self.quality[link_id].latency_ms)
            for link_id in self.adjacency[node_id]
        )

    def _ledger_walk(self, sign, link_demands, cpu_demands, mem_demands):
        """Add sign times each demand to its residual, after checking them all.

        A reserve passes sign -1 and a release sign 1. The ids, then the
        signs, then the totals are checked, for CPU, memory and bandwidth
        in that order, before any residual is written. Only a release may
        name a failed host. A residual stays within [0, capacity]: a
        reserve that would take one below 0 does not fit, and a release
        that would take one above its capacity means the ledgers disagree.
        """
        nodes, links = self.nodes, self.links
        cpu_demands, mem_demands = cpu_demands or {}, mem_demands or {}
        link_demands = link_demands or {}
        for host_id in (*cpu_demands, *mem_demands):
            self._check_host(host_id, allow_failed=sign > 0)
        for link_id in link_demands:
            if link_id not in links:
                raise SimulatorError(f"unknown link {link_id}")
        tables = (
            ("cpu", self.residual_cpu, cpu_demands, lambda i: nodes[i].cpu_capacity),
            ("mem", self.residual_mem, mem_demands, lambda i: nodes[i].mem_capacity),
            ("bandwidth", self.residual_bw, link_demands, lambda i: links[i].bandwidth_kbps),
        )
        for resource, _, totals, _ in tables:
            for key, amount in totals.items():
                if amount < 0:
                    raise InvalidRange(f"negative {resource} demand on {key}")
        for resource, residual, totals, capacity in tables:
            for key, amount in totals.items():
                if sign < 0:
                    if amount > residual[key]:
                        raise SimulatorError(f"insufficient {resource} on {key}")
                elif residual[key] + amount > capacity(key):
                    raise InvariantViolation(f"over-release of {resource} on {key}")
        for _, residual, totals, _ in tables:
            for key, amount in totals.items():
                residual[key] += sign * amount

    def _check_host(self, host_id: int, allow_failed: bool = False) -> None:
        node = self.nodes.get(host_id)
        if node is None or node.kind is not NodeKind.HOST:
            msg = f"unknown host {host_id}"
            raise SimulatorError(msg)
        if not allow_failed and host_id in self.failed_hosts:
            # A failed host provides nothing, so any demand on it is
            # unsatisfiable by definition.
            raise SimulatorError(f"host {host_id} has failed")

