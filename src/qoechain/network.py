"""Substrate network model.

The substrate is an undirected graph of compute hosts, switches and traffic
endpoints. Each link carries one shared bandwidth pool plus base quality
figures (latency, jitter, loss) that fault injection may override at run
time. Reservations mutate integer residual counters; every mutating
operation either applies completely or not at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import (
    AlreadyFailed,
    DanglingEndpoint,
    DuplicateId,
    InsufficientResidual,
    InvalidRange,
    NegativeCapacity,
    OverRelease,
    UnknownHost,
    UnknownLink,
)

# Placement identity is (request_id, chain position).
PlacementId = tuple[int, int]


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
            raise NegativeCapacity(msg)
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
            raise DanglingEndpoint(msg)
        if self.bandwidth_kbps <= 0:
            msg = f"link {self.id}: bandwidth must be at least 0.001 Mbps"
            raise NegativeCapacity(msg, field="bandwidth_kbps")
        check_link_quality(self.id, self.latency_ms, self.jitter_ms, self.loss_pct)

    def other(self, node_id: int) -> int:
        if node_id == self.a:
            return self.b
        if node_id == self.b:
            return self.a
        msg = f"node {node_id} is not an endpoint of link {self.id}"
        raise DanglingEndpoint(msg)


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


@dataclass(frozen=True)
class LinkQuality:
    """A link's quality figures: its spec's until a degradation overwrites them."""

    latency_ms: float
    jitter_ms: float
    loss_pct: float


@dataclass(frozen=True)
class PlacementRecord:
    """One VNF instance pinned to a host, with the resources it holds."""

    placement_id: PlacementId
    host_id: int
    cpu: int
    mem: int


class NetworkState:
    """Mutable substrate state: residual resources, failures, degradations.

    Mutations are transactional: a rejected reserve or release leaves the
    state bit-identical to what it was before the call.
    """

    # Tentative bandwidth on top of residual_bw, which available_bw adds in:
    # a bare state has none, a planning view carries its own.
    bw_delta: Mapping[int, int] = MappingProxyType({})

    def __init__(self, nodes: Iterable[NodeSpec], links: Iterable[LinkSpec]):
        self.nodes: dict[int, NodeSpec] = {}
        for node in nodes:
            if node.id in self.nodes:
                msg = f"duplicate node id {node.id}"
                raise DuplicateId(msg)
            self.nodes[node.id] = node

        self.links: dict[int, LinkSpec] = {}
        for link in links:
            if link.id in self.links:
                msg = f"duplicate link id {link.id}"
                raise DuplicateId(msg)
            for end in (link.a, link.b):
                if end not in self.nodes:
                    msg = f"link {link.id} references unknown node {end}"
                    raise DanglingEndpoint(msg)
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
        self.quality: dict[int, LinkQuality] = {
            link.id: LinkQuality(link.latency_ms, link.jitter_ms, link.loss_pct)
            for link in self.links.values()
        }
        # Moves at every change of link quality, so figures read off link
        # quality can tell whether they are stale; quality_changed holds the
        # epoch of each link's last change, so they can tell which link.
        self.quality_epoch = 0
        self.quality_changed: dict[int, int] = {}
        self.placements: dict[PlacementId, PlacementRecord] = {}

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

    # -- read model ---------------------------------------------------------

    def link_quality(self, link_id: int) -> LinkQuality:
        return self.quality[link_id]

    def available_bw(self, link_id: int) -> int:
        """The usable-bandwidth rule: residual plus any pending delta.

        Planning views share this function; routing._settle and
        Controller._measure read it inline in their per-link loops.
        """
        return self.residual_bw[link_id] + self.bw_delta.get(link_id, 0)

    # -- mutations ----------------------------------------------------------

    def reserve(
        self,
        link_demands: Mapping[int, int] | None = None,
        placements: Iterable[PlacementRecord] = (),
    ) -> None:
        """Reserve bandwidth and placements' CPU/memory, all-or-nothing.

        link_demands maps link id to kbps; a link crossed twice by the same
        chain must appear once with the doubled demand. placements pin named
        VNF instances, with the CPU and memory they hold, to hosts so a
        later host failure can report exactly which instances it holds.

        Raises UnknownHost/UnknownLink for bad ids, NegativeCapacity for
        negative demands, DuplicateId for an already-known placement id and
        InsufficientResidual when anything does not fit. On any error the
        state is left untouched.
        """
        placements = tuple(placements)
        cpu_need: dict[int, int] = {}
        mem_need: dict[int, int] = {}
        seen_pids = set()
        for rec in placements:
            self._check_host(rec.host_id)
            if rec.cpu < 0 or rec.mem < 0:
                msg = f"negative demand in placement {rec.placement_id}"
                raise NegativeCapacity(msg)
            if rec.placement_id in self.placements or rec.placement_id in seen_pids:
                msg = f"placement id {rec.placement_id} already reserved"
                raise DuplicateId(msg)
            seen_pids.add(rec.placement_id)
            cpu_need[rec.host_id] = cpu_need.get(rec.host_id, 0) + rec.cpu
            mem_need[rec.host_id] = mem_need.get(rec.host_id, 0) + rec.mem

        bw_need: dict[int, int] = {}
        for link_id, kbps in (link_demands or {}).items():
            if link_id not in self.links:
                msg = f"unknown link {link_id}"
                raise UnknownLink(msg)
            if kbps < 0:
                msg = f"negative bandwidth demand on link {link_id}"
                raise NegativeCapacity(msg)
            bw_need[link_id] = bw_need.get(link_id, 0) + kbps

        for host_id, cpu in cpu_need.items():
            if cpu > self.residual_cpu[host_id]:
                raise InsufficientResidual("cpu", host_id)
        for host_id, mem in mem_need.items():
            if mem > self.residual_mem[host_id]:
                raise InsufficientResidual("mem", host_id)
        for link_id, kbps in bw_need.items():
            if kbps > self.residual_bw[link_id]:
                raise InsufficientResidual("bandwidth", link_id)

        for host_id, cpu in cpu_need.items():
            self.residual_cpu[host_id] -= cpu
        for host_id, mem in mem_need.items():
            self.residual_mem[host_id] -= mem
        for link_id, kbps in bw_need.items():
            self.residual_bw[link_id] -= kbps
        for rec in placements:
            self.placements[rec.placement_id] = rec

    def release(
        self,
        link_demands: Mapping[int, int] | None = None,
        placement_ids: Iterable[PlacementId] = (),
    ) -> None:
        """Give back previously reserved resources, all-or-nothing.

        Releasing more than is reserved, or an unknown placement id, raises
        OverRelease: that always means the caller's ledger and this state
        disagree, which is fatal.
        """
        placement_ids = tuple(placement_ids)
        cpu_back: dict[int, int] = {}
        mem_back: dict[int, int] = {}
        seen_pids = set()
        for pid in placement_ids:
            rec = self.placements.get(pid)
            if rec is None or pid in seen_pids:
                raise OverRelease("placement", pid)
            seen_pids.add(pid)
            cpu_back[rec.host_id] = cpu_back.get(rec.host_id, 0) + rec.cpu
            mem_back[rec.host_id] = mem_back.get(rec.host_id, 0) + rec.mem

        bw_back: dict[int, int] = {}
        for link_id, kbps in (link_demands or {}).items():
            if link_id not in self.links:
                msg = f"unknown link {link_id}"
                raise UnknownLink(msg)
            if kbps < 0:
                msg = f"negative bandwidth release on link {link_id}"
                raise NegativeCapacity(msg)
            bw_back[link_id] = bw_back.get(link_id, 0) + kbps

        for host_id, cpu in cpu_back.items():
            node = self.nodes[host_id]
            if self.residual_cpu[host_id] + cpu > node.cpu_capacity:
                raise OverRelease("cpu", host_id)
            if self.residual_mem[host_id] + mem_back[host_id] > node.mem_capacity:
                raise OverRelease("mem", host_id)
        for link_id, kbps in bw_back.items():
            if self.residual_bw[link_id] + kbps > self.links[link_id].bandwidth_kbps:
                raise OverRelease("bandwidth", link_id)

        for host_id, cpu in cpu_back.items():
            self.residual_cpu[host_id] += cpu
        for host_id, mem in mem_back.items():
            self.residual_mem[host_id] += mem
        for link_id, kbps in bw_back.items():
            self.residual_bw[link_id] += kbps
        for pid in placement_ids:
            del self.placements[pid]

    def fail_host(self, host_id: int) -> None:
        """Fail-stop a host.

        The host takes no new demand from now on. What it holds stays
        reserved until released like any other holding. Failing an
        already-failed host raises AlreadyFailed; failures are explicit
        events, not idempotent updates.
        """
        self._check_host(host_id, allow_failed=True)
        if host_id in self.failed_hosts:
            msg = f"host {host_id} already failed"
            raise AlreadyFailed(msg)
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
        traffic, only worse. loss_pct=100 models a link failure. This is the
        only change of link quality, and each one moves quality_epoch,
        records it in quality_changed and refreshes both endpoints' edges.
        """
        if link_id not in self.links:
            msg = f"unknown link {link_id}"
            raise UnknownLink(msg)
        current = self.quality[link_id]
        latency = current.latency_ms if latency_ms is None else latency_ms
        jitter = current.jitter_ms if jitter_ms is None else jitter_ms
        loss = current.loss_pct if loss_pct is None else loss_pct
        check_link_quality(link_id, latency, jitter, loss)
        self.quality[link_id] = LinkQuality(latency, jitter, loss)
        self.quality_epoch += 1
        self.quality_changed[link_id] = self.quality_epoch
        link = self.links[link_id]
        self._refresh_edges(link.a)
        self._refresh_edges(link.b)

    # -- helpers -------------------------------------------------------------

    def _refresh_edges(self, node_id: int) -> None:
        links = self.links
        self.edges[node_id] = tuple(
            (link_id, links[link_id].other(node_id), self.quality[link_id].latency_ms)
            for link_id in self.adjacency[node_id]
        )

    def _check_host(self, host_id: int, allow_failed: bool = False) -> None:
        node = self.nodes.get(host_id)
        if node is None or node.kind is not NodeKind.HOST:
            msg = f"unknown host {host_id}"
            raise UnknownHost(msg)
        if not allow_failed and host_id in self.failed_hosts:
            # A failed host provides nothing, so any demand on it is
            # unsatisfiable by definition.
            raise InsufficientResidual("cpu", host_id, f"host {host_id} has failed")


def build_network(nodes: Iterable[NodeSpec], links: Iterable[LinkSpec]) -> NetworkState:
    """Validate the topology and return a fresh, fully available state."""
    return NetworkState(nodes, links)
