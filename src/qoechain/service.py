"""Service model: VNF catalog, application profiles, chains and their graphs.

A chain request asks for an ordered sequence of VNFs between two endpoints.
An admitted request is materialized as a forwarding graph: one host per
chain position plus the link paths stitching ingress, hosts and egress
together. The graph holds only what embedding decides; the request id and
the VNF names are read from the request.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import InvalidRange, SimulatorError
from .network import NetworkState, NodeKind, PathMetrics
from .units import mbps_to_kbps

LinkPath = tuple[int, ...]


@dataclass(frozen=True)
class VnfType:
    """One catalog entry: what a VNF instance costs and adds to the path."""

    name: str
    cpu_demand: int
    mem_demand: int
    proc_latency_ms: float

    def __post_init__(self):
        if not self.name:
            raise InvalidRange("vnf name must be non-empty", field="name")
        if self.cpu_demand < 0 or self.mem_demand < 0:
            msg = f"vnf {self.name}: demands must be non-negative"
            raise InvalidRange(msg)
        if self.proc_latency_ms < 0:
            msg = f"vnf {self.name}: proc latency must be non-negative"
            raise InvalidRange(msg)


@dataclass(frozen=True)
class AppProfile:
    """Per-application QoE thresholds feeding the MOS model."""

    name: str
    bw_req_mbps: float
    delay_opt_ms: float
    delay_max_ms: float
    loss_max_pct: float
    stall_max: float

    def __post_init__(self):
        if not self.name:
            raise InvalidRange("profile name must be non-empty", field="name")
        if self.bw_req_mbps <= 0:
            msg = f"profile {self.name}: bw_req must be positive"
            raise InvalidRange(msg, field="bw_req_mbps")
        if self.delay_opt_ms < 0 or self.delay_max_ms <= self.delay_opt_ms:
            msg = f"profile {self.name}: need 0 <= delay_opt_ms < delay_max_ms"
            raise InvalidRange(msg)
        if self.loss_max_pct <= 0 or self.loss_max_pct > 100:
            msg = f"profile {self.name}: loss_max must be in (0, 100]"
            raise InvalidRange(msg, field="loss_max_pct")
        if not 0 < self.stall_max <= 1:
            msg = f"profile {self.name}: stall_max must be in (0, 1]"
            raise InvalidRange(msg, field="stall_max")

    @cached_property
    def bw_req_kbps(self) -> int:
        """The bandwidth need in the integer kbps that reservations hold."""
        return mbps_to_kbps(self.bw_req_mbps)


def check_mos_target(target: float, field: str, owner: str = "") -> None:
    """A MOS target lies on the MOS scale, [1, 5]; owner prefixes the message."""
    if not 1.0 <= target <= 5.0:
        raise InvalidRange(f"{owner}{field} must be within [1, 5]", field=field)


@dataclass(frozen=True)
class ChainRequest:
    """A request to run traffic from ingress to egress through a VNF chain."""

    id: int
    ingress: int
    egress: int
    vnf_sequence: tuple[str, ...]
    profile: str
    ela_target: float
    arrival_ms: int
    holding_ms: int

    def __post_init__(self):
        if self.id < 0:
            msg = f"request id must be non-negative, got {self.id}"
            raise InvalidRange(msg, field="id")
        if self.ingress == self.egress:
            msg = f"request {self.id}: ingress and egress must differ"
            raise InvalidRange(msg)
        check_mos_target(self.ela_target, "ela_target", f"request {self.id}: ")
        if self.arrival_ms < 0:
            msg = f"request {self.id}: arrival must be non-negative"
            raise InvalidRange(msg, field="arrival_ms")
        if self.holding_ms <= 0:
            msg = f"request {self.id}: holding time must be positive"
            raise InvalidRange(msg, field="holding_ms")


class ServiceCatalog:
    """Lookup of VNF types and application profiles by name."""

    def __init__(self, vnf_types: Iterable[VnfType], profiles: Iterable[AppProfile]):
        self.vnf_types: dict[str, VnfType] = {}
        for vnf in vnf_types:
            if vnf.name in self.vnf_types:
                raise InvalidRange(f"duplicate vnf type {vnf.name}")
            self.vnf_types[vnf.name] = vnf
        self.profiles: dict[str, AppProfile] = {}
        for profile in profiles:
            if profile.name in self.profiles:
                raise InvalidRange(f"duplicate profile {profile.name}")
            self.profiles[profile.name] = profile

    def vnf(self, name: str) -> VnfType:
        try:
            return self.vnf_types[name]
        except KeyError:
            raise SimulatorError(f"unknown vnf type {name!r}") from None

    def profile(self, name: str) -> AppProfile:
        try:
            return self.profiles[name]
        except KeyError:
            raise SimulatorError(f"unknown profile {name!r}") from None

    def proc_latencies(self, names: Sequence[str]) -> tuple[float, ...]:
        return tuple(self.vnf(name).proc_latency_ms for name in names)


@dataclass
class ForwardingGraph:
    """The embedded shape of one admitted chain.

    hosts[i] is the host of chain position i, which runs the request's
    vnf_sequence[i]. segments has exactly one more entry than hosts:
    segment 0 runs ingress to the first host, segment i to host i, and the
    last segment to egress. A segment is a link-id path; it is empty when
    its two ends are the same node (consecutive VNFs on one host).
    """

    hosts: tuple[int, ...]
    segments: tuple[LinkPath, ...]
    reserved_bw_kbps: int

    @cached_property
    def links(self) -> frozenset[int]:
        """Every link the graph crosses; computed once per graph."""
        return frozenset(link_id for segment in self.segments for link_id in segment)


def path_metrics(
    segments: Iterable[LinkPath],
    state: NetworkState,
    proc_latencies_ms: Iterable[float] = (),
) -> PathMetrics:
    """End-to-end metrics of a segment list under the current link quality.

    Each link's quality is its one-link path's metrics, so this joins them:
    latency is the sum of link latencies plus the processing latency of
    every traversed VNF; jitter adds up the same way. Losses compound:
    loss = 100 * (1 - prod(1 - loss_i / 100)).
    """
    quality = state.quality
    latency = 0.0
    jitter = 0.0
    delivery = 1.0
    for segment in segments:
        for link_id in segment:
            link_latency, link_jitter, link_loss = quality[link_id]
            latency += link_latency
            jitter += link_jitter
            delivery *= 1.0 - link_loss / 100.0
    latency += sum(proc_latencies_ms)
    return PathMetrics(latency, jitter, 100.0 * (1.0 - delivery))


def _walk_segment(
    state: NetworkState, start: int, segment: LinkPath, violations: list[str], label: str
) -> int | None:
    """Follow a link path from start; append violations, return the end node."""
    here = start
    seen: set[int] = set()
    for hop, link_id in enumerate(segment):
        if hop and here in state.failed_hosts:
            violations.append(f"{label}: relays through failed host {here}")
        link = state.links.get(link_id)
        if link is None:
            violations.append(f"{label}: unknown link {link_id}")
            return None
        if link_id in seen:
            violations.append(f"{label}: link {link_id} repeated within segment")
            return None
        seen.add(link_id)
        if here not in (link.a, link.b):
            violations.append(
                f"{label}: link {link_id} does not touch node {here}"
            )
            return None
        here = link.other(here)
    return here


def validate_forwarding_graph(
    fg: ForwardingGraph, request: ChainRequest, state: NetworkState
) -> list[str]:
    """Structural audit of a forwarding graph against its request and state.

    Returns a list of human-readable violations; an empty list means the
    graph is coherent.
    """
    violations: list[str] = []
    if len(fg.hosts) != len(request.vnf_sequence):
        violations.append(
            f"expected {len(request.vnf_sequence)} placements, got {len(fg.hosts)}"
        )
    if len(fg.segments) != len(fg.hosts) + 1:
        violations.append(
            f"expected {len(fg.hosts) + 1} segments, got {len(fg.segments)}"
        )
        return violations

    for pos, host_id in enumerate(fg.hosts):
        node = state.nodes.get(host_id)
        if node is None or node.kind is not NodeKind.HOST:
            violations.append(f"placement {pos}: node {host_id} is not a host")
        elif host_id in state.failed_hosts:
            violations.append(f"placement {pos}: host {host_id} has failed")

    points = [request.ingress, *fg.hosts, request.egress]
    for index, segment in enumerate(fg.segments):
        label = f"segment {index}"
        end = _walk_segment(state, points[index], segment, violations, label)
        if end is None:
            continue
        if end != points[index + 1]:
            violations.append(
                f"{label}: ends at node {end}, expected {points[index + 1]}"
            )
    return violations
