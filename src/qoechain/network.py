"""Substrate network model.

The substrate is an undirected graph of compute hosts, switches and traffic
endpoints. Each link carries one shared bandwidth pool plus quality
figures: a PathMetrics (latency, jitter, loss), the one type for a link's
figures and a path's, that fault injection may override at run time.
Reservations mutate integer residual counters; every mutating
operation either applies completely or not at all. The network counts what
is left; which flow holds what is recorded in the VNF database.

Each fact has one table on NetworkState: `edges` is the topology, built
once; `quality` holds each link's current figures and `floor.quality` its
floor figures; `capacity` holds each resource's capacity, from which the
`residual_*` tables start.
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


# The largest latency or jitter a link, degradation or VNF may give: so far
# below the float range that no route's sum of them can overflow.
MAX_DELAY_MS = 1e12
_AT_MOST = f"must be at most {MAX_DELAY_MS:g}"


def check_link_quality(
    link_id: int, latency_ms: float = 0.0, jitter_ms: float = 0.0, loss_pct: float = 0.0
) -> None:
    """The rule on link quality figures, for base values and overrides alike.

    Latency and jitter lie within [0, MAX_DELAY_MS] and loss is a
    percentage; each figure is checked in that order, and one out of range
    names its field. A figure left at its default is one the caller does
    not set.
    """
    if latency_ms < 0 or latency_ms > MAX_DELAY_MS:
        rule = "latency must be non-negative" if latency_ms < 0 else f"latency_ms {_AT_MOST}"
        raise InvalidRange(f"link {link_id}: {rule}", field="latency_ms")
    if jitter_ms < 0 or jitter_ms > MAX_DELAY_MS:
        rule = "jitter must be non-negative" if jitter_ms < 0 else f"jitter_ms {_AT_MOST}"
        raise InvalidRange(f"link {link_id}: {rule}", field="jitter_ms")
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

    quality holds each link's floor figures: its floor latency, the lowest
    latency it has held in this run (its base latency until lower, the
    only writer of a floor, takes a lower one), with jitter and loss 0,
    since search reads latency alone. The floor shares the state's edges,
    every residual fits a demand of 0 and no host has failed, so every
    link is open and every node relays. trees maps a source to its floor
    tree, built by routing on first use; lowering a floor drops them all.
    """

    def __init__(self, state: NetworkState):
        self.edges = state.edges
        self.quality: dict[int, PathMetrics] = {
            link_id: PathMetrics(quality.latency_ms, 0.0, 0.0)
            for link_id, quality in state.quality.items()
        }
        self.residual_bw: dict[int, int] = dict.fromkeys(state.links, 0)
        self.failed_hosts: frozenset[int] = frozenset()
        self.trees: dict[int, dict] = {}

    def lower(self, link_id: int, latency_ms: float) -> None:
        """Take latency_ms as the link's floor if it is below it.

        Lowering writes that link's floor figures and drops every floor
        tree; a latency at or above the floor leaves all standing.
        """
        if latency_ms < self.quality[link_id].latency_ms:
            self.quality[link_id] = PathMetrics(latency_ms, 0.0, 0.0)
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

        # Each resource's capacity, by host or link id; the residuals start
        # from it and a release may not take one above it.
        hosts = [node for node in self.nodes.values() if node.kind is NodeKind.HOST]
        self.capacity: dict[str, dict[int, int]] = {
            "cpu": {node.id: node.cpu_capacity for node in hosts},
            "mem": {node.id: node.mem_capacity for node in hosts},
            "bandwidth": {link.id: link.bandwidth_kbps for link in self.links.values()},
        }
        self.residual_cpu: dict[int, int] = dict(self.capacity["cpu"])
        self.residual_mem: dict[int, int] = dict(self.capacity["mem"])
        self.residual_bw: dict[int, int] = dict(self.capacity["bandwidth"])
        # Hosts never join or leave after construction; a failed one stays listed.
        self.host_ids: tuple[int, ...] = tuple(sorted(self.residual_cpu))
        self.failed_hosts: set[int] = set()
        # Each link's current quality: its LinkSpec figures until degrade_link
        # overwrites them.
        self.quality: dict[int, PathMetrics] = {
            link.id: PathMetrics(link.latency_ms, link.jitter_ms, link.loss_pct)
            for link in self.links.values()
        }
        # The topology: each node's (link id, neighbour) pairs in link-id
        # order, built here and never written again.
        edges: dict[int, list[tuple[int, int]]] = {node_id: [] for node_id in self.nodes}
        for link_id in sorted(self.links):
            link = self.links[link_id]
            edges[link.a].append((link_id, link.b))
            edges[link.b].append((link_id, link.a))
        self.edges: dict[int, tuple[tuple[int, int], ...]] = {
            node_id: tuple(pairs) for node_id, pairs in edges.items()
        }
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
        if host_id not in self.residual_cpu:
            raise SimulatorError(f"unknown host {host_id}")
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
        only writer of quality and writes only the link's entry there,
        which every search reads, so nothing else needs refreshing;
        Floor.lower then takes the new latency as the link's floor if it
        is below it. The caller hands the change to
        Controller.handle_degradation.
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
        self.floor.lower(link_id, quality.latency_ms)

    # -- helpers -------------------------------------------------------------

    def _ledger_walk(self, sign, link_demands, cpu_demands, mem_demands):
        """Add sign times each demand to its residual, after checking them all.

        A reserve passes sign -1 and a release sign 1. The CPU, memory and
        bandwidth tables are checked in that order, each in one pass in map
        order, before any residual is written. Each demand's id must be
        known, its host (on a reserve) not failed, its sign not negative and
        its residual left within [0, capacity]: a reserve that would take one
        below 0 does not fit, and a release that would take one above its
        capacity means the ledgers disagree. So of several faults in one
        call, the first demand's first fault in that order is raised.
        """
        # A failed host provides nothing, so any demand on it is unsatisfiable.
        failed = self.failed_hosts if sign < 0 else ()
        tables = (
            ("cpu", "host", self.residual_cpu, cpu_demands, failed),
            ("mem", "host", self.residual_mem, mem_demands, failed),
            ("bandwidth", "link", self.residual_bw, link_demands, ()),
        )
        for resource, owner, residual, totals, down in tables:
            capacity = self.capacity[resource]
            for key, amount in (totals or {}).items():
                if key not in residual:
                    raise SimulatorError(f"unknown {owner} {key}")
                if key in down:
                    raise SimulatorError(f"host {key} has failed")
                if amount < 0:
                    raise InvalidRange(f"negative {resource} demand on {key}")
                left = residual[key] + sign * amount
                if left < 0:
                    raise SimulatorError(f"insufficient {resource} on {key}")
                if left > capacity[key]:
                    raise InvariantViolation(f"over-release of {resource} on {key}")
        for _, _, residual, totals, _ in tables:
            for key, amount in (totals or {}).items():
                residual[key] += sign * amount
