"""SDN controller: admission, embedding, flow monitoring and self-healing.

The controller decides and the orchestrator records. The controller keeps
the substrate, the catalog, the ELA, the policy and the injected stall
levels, and nothing per flow: each flow's request, graph, status,
measurement carry, route figures and run outcome live on its entry in the
orchestrator's database. The controller scores the entries it is handed,
writing only their measurement fields and run outcome, and answers with
graphs or Actions; it never changes a flow's graph or status.

The controller owns the reservation ledger. Admission and every repair
are planned by one routine on a resource view, and one ledger commit,
the only writer of the ledger, touches the real network only once a whole
plan is known to fit, so admission and repair are transactional. A failed
host's holdings stay reserved until that commit releases them. Every
choice (candidate host, path, worst link) is made under a total order,
which makes identical inputs produce identical outputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Collection, Iterable, Mapping

from .errors import (
    InstanceTooLarge,
    InvalidRange,
    InvariantViolation,
    SimulatorError,
    UnknownRequest,
)
from .network import NetworkState, PlacementRecord
from .qoe import (
    Ela,
    FlowSample,
    QoeSample,
    check_stall_ratio,
    ela_breached,
    estimate_mos,
    predict_mos,
)
from .routing import (
    enumerate_simple_paths,
    path_key,
    shortest_feasible_path,
    shortest_path_tree,
)
from .service import (
    AppProfile,
    ChainRequest,
    ForwardingGraph,
    LinkPath,
    PathMetrics,
    ServiceCatalog,
    VnfType,
    path_metrics,
)
from .units import KBPS_PER_MBPS

if TYPE_CHECKING:
    from .orchestrator import DbEntry


@dataclass(frozen=True)
class PolicyConfig:
    """Controller knobs.

    Path weight (latency), the candidate tie-break (lowest utilization,
    then lowest host id) and the admission rule (predicted MOS at or above
    the request's target) are fixed behavior, not configuration.
    """

    predictor_alpha: float = 0.3
    max_reroute_attempts: int = 2

    def __post_init__(self):
        if not 0 < self.predictor_alpha <= 1:
            msg = "predictor_alpha must be in (0, 1]"
            raise InvalidRange(msg, field="predictor_alpha")
        if self.max_reroute_attempts < 1:
            msg = "max_reroute_attempts must be at least 1"
            raise InvalidRange(msg, field="max_reroute_attempts")


@dataclass(frozen=True)
class OracleLimits:
    """Hard bounds above which exact_embed refuses to run."""

    max_hosts: int = 6
    max_chain: int = 3
    max_paths_per_pair: int = 100


class RejectReason(str, Enum):
    NO_HOST = "NoHost"
    NO_PATH = "NoPath"
    QOE_BELOW_TARGET = "QoeBelowTarget"


@dataclass(frozen=True)
class Rejected:
    reason: RejectReason
    predicted_mos: float | None = None


class ActionKind(str, Enum):
    REROUTED = "Rerouted"
    MIGRATED = "Migrated"
    MARKED_DEGRADED = "MarkedDegraded"
    FAILED = "Failed"


@dataclass(frozen=True)
class Action:
    kind: ActionKind
    flow_id: int
    new_graph: ForwardingGraph | None = None


class ResourceView:
    """The NetworkState reads planning needs, with tentative resource deltas on top.

    A positive delta offers resources back (a flow replanning may reuse its
    own holdings); a negative delta tracks demand pending within a plan.
    Topology, failures, link quality and the residual counters are the
    state's own objects: no delta touches them. What is available is the
    residual plus the delta, which hot loops read inline.
    """

    def __init__(self, state: NetworkState):
        self.nodes = state.nodes
        self.links = state.links
        self.failed_hosts = state.failed_hosts
        self.adjacency = state.adjacency
        self.edges = state.edges
        self.link_quality = state.link_quality
        self.residual_bw = state.residual_bw
        self.residual_cpu = state.residual_cpu
        self.residual_mem = state.residual_mem
        self.bw_delta: dict[int, int] = {}
        self.cpu_delta: dict[int, int] = {}
        self.mem_delta: dict[int, int] = {}

    def available_bw(self, link_id: int) -> int:
        return self.residual_bw[link_id] + self.bw_delta.get(link_id, 0)

    def add_bw(self, link_id: int, delta: int) -> None:
        self.bw_delta[link_id] = self.bw_delta.get(link_id, 0) + delta

    def add_cpu(self, host_id: int, delta: int) -> None:
        self.cpu_delta[host_id] = self.cpu_delta.get(host_id, 0) + delta

    def add_mem(self, host_id: int, delta: int) -> None:
        self.mem_delta[host_id] = self.mem_delta.get(host_id, 0) + delta


@dataclass
class RouteFigures:
    """What measuring a flow reads off its graph, request and link quality.

    Built for one graph object and valid while the entry still holds that
    object and no link of the graph has changed quality since quality_epoch:
    a reroute or migration installs a new graph object, and only
    degrade_link changes link quality, recording the epoch of each change
    per link. When the epoch has moved but only off the route, the figures
    stay and just take the new epoch. Residual bandwidth changes at every
    reserve and release, so the throughput floor is read every window.
    """

    graph: ForwardingGraph
    quality_epoch: int
    metrics: PathMetrics
    # (link id, kbps) of graph.link_usage(), in its order.
    usage: tuple[tuple[int, int], ...]
    bw_req_kbps: int
    profile: AppProfile
    ela: Ela


class Controller:
    def __init__(
        self,
        network: NetworkState,
        catalog: ServiceCatalog,
        ela: Ela,
        policy: PolicyConfig = PolicyConfig(),
    ):
        self.network = network
        self.catalog = catalog
        self.ela = ela
        self.policy = policy
        # Keyed by flow id, not by entry: a stall may target a flow before
        # that flow is admitted.
        self.stall_levels: dict[int, float] = {}

    # -- admission ------------------------------------------------------------

    def admit(self, request: ChainRequest) -> ForwardingGraph | Rejected:
        """Greedy chain embedding with QoE-gated admission.

        Walks the chain from the ingress, placing each VNF on the host with
        the cheapest feasible path from the current anchor (ties: lowest
        utilization, then lowest host id), then stitches the final segment
        to the egress. The candidate is admitted only if its predicted MOS
        reaches the request's target; on admission every resource is
        reserved in one transaction.
        """
        chain = range(len(request.vnf_sequence))
        segments = range(len(chain) + 1)
        graph = self._replan(request, None, chain, segments)
        if not isinstance(graph, Rejected):
            self._commit(None, graph, chain, segments)
        return graph

    def _replan(
        self,
        request: ChainRequest,
        graph: ForwardingGraph | None,
        positions: Collection[int],
        segments: Collection[int],
        exclude_links: frozenset[int] = frozenset(),
    ) -> ForwardingGraph | Rejected:
        """Plan new hosts for positions and new paths for segments; reserve nothing.

        graph is the flow's current graph, or None for a new request, which
        passes every position and segment. segments must include the one
        into each position. Planning runs on one view with what the flow
        holds at those positions and segments offered back. Positions are
        re-placed first, in ascending order, each with the segment into it;
        the other segments are then rebuilt in ascending order. A plan
        identical to the graph is no repair. A flow whose graph touches a
        failed host takes any plan that fits; any other plan must reach the
        request's target MOS, predicted on the view without the plan's own
        pending demand.
        """
        view = ResourceView(self.network)
        if graph is None:
            bw_kbps = self.catalog.profile(request.profile).bw_req_kbps
            hosts = [None] * len(request.vnf_sequence)
            paths: list[LinkPath] = [()] * (len(hosts) + 1)
        else:
            bw_kbps = graph.reserved_bw_kbps
            hosts = [host_id for _, host_id in graph.placements]
            paths = list(graph.segments)
            usage, records = self._parts(graph, positions, segments)
            for link_id, kbps in usage.items():
                view.add_bw(link_id, kbps)
            for record in records:
                view.add_cpu(record.host_id, record.cpu)
                view.add_mem(record.host_id, record.mem)
        points = [request.ingress, *hosts, request.egress]
        for position in sorted(positions):
            vnf = self.catalog.vnf(request.vnf_sequence[position])
            placed = self._place_next(view, points[position], vnf, bw_kbps, exclude_links)
            if isinstance(placed, RejectReason):
                return Rejected(placed)
            points[position + 1], paths[position] = placed
        for index in sorted(set(segments) - set(positions)):
            path = shortest_feasible_path(
                view, points[index], points[index + 1], bw_kbps, exclude_links
            )
            if path is None:
                return Rejected(RejectReason.NO_PATH)
            paths[index] = tuple(path)
            for link_id in path:
                view.add_bw(link_id, -bw_kbps)
        if graph is not None and tuple(paths) == graph.segments:
            return Rejected(RejectReason.NO_PATH)
        if graph is None or not self._failure_damage(request, graph)[1]:
            # Give the plan's pending demand back: the flow must not compete
            # with itself for the bandwidth it is about to hold.
            for index in segments:
                for link_id in paths[index]:
                    view.add_bw(link_id, bw_kbps)
            predicted = predict_mos(request, paths, view, self.catalog)
            if predicted.mos < request.ela_target:
                return Rejected(RejectReason.QOE_BELOW_TARGET, predicted.mos)
        placements = tuple(zip(request.vnf_sequence, points[1:-1]))
        return ForwardingGraph(request.id, placements, tuple(paths), bw_kbps)

    def _failure_damage(
        self, request: ChainRequest, graph: ForwardingGraph
    ) -> tuple[set[int], set[int]]:
        """Where failed hosts break graph: (positions, segments).

        The positions are those placed on a failed host; the segments are
        those on either side of such a position or forwarding through one.
        """
        failed = self.network.failed_hosts
        lost = {p for p, (_, host_id) in enumerate(graph.placements) if host_id in failed}
        segments = {index for p in lost for index in (p, p + 1)}
        node = request.ingress
        for index, segment in enumerate(graph.segments):
            for hop, link_id in enumerate(segment):
                if hop and node in failed:
                    segments.add(index)
                node = self.network.links[link_id].other(node)
        return lost, segments

    def _place_next(
        self,
        view: ResourceView,
        anchor: int,
        vnf: VnfType,
        bw_kbps: int,
        exclude_links: frozenset[int],
    ) -> tuple[int, LinkPath] | RejectReason:
        """Place one VNF after anchor and take its demand out of the view.

        The host is the candidate with the cheapest feasible path from the
        anchor (ties: lowest utilization, then lowest host id), all read off
        one shortest-path tree. One pass reads each host's CPU and memory
        once; the tree is built at the first host that fits, so a NoHost
        rejection searches nothing. Returns the host and the segment to it,
        or why no host was chosen.
        """
        residual_cpu, cpu_delta = view.residual_cpu, view.cpu_delta
        residual_mem, mem_delta = view.residual_mem, view.mem_delta
        nodes = self.network.nodes
        tree = None
        options = []
        for host_id in self.network.host_ids():
            if host_id in view.failed_hosts:
                continue
            cpu = residual_cpu[host_id] + cpu_delta.get(host_id, 0)
            mem = residual_mem[host_id] + mem_delta.get(host_id, 0)
            if cpu < vnf.cpu_demand or mem < vnf.mem_demand:
                continue
            if tree is None:
                tree = shortest_path_tree(view, anchor, bw_kbps, exclude_links)
            label = tree.get(host_id)
            if label is None:
                continue
            cap_cpu, cap_mem = nodes[host_id].cpu_capacity, nodes[host_id].mem_capacity
            utilization = max(
                (cap_cpu - cpu) / cap_cpu if cap_cpu else 0.0,
                (cap_mem - mem) / cap_mem if cap_mem else 0.0,
            )
            options.append((label[0], utilization, host_id, label[2]))
        if tree is None:
            return RejectReason.NO_HOST
        if not options:
            return RejectReason.NO_PATH
        _, _, host_id, segment = min(options)
        view.add_cpu(host_id, -vnf.cpu_demand)
        view.add_mem(host_id, -vnf.mem_demand)
        for link_id in segment:
            view.add_bw(link_id, -bw_kbps)
        return host_id, segment

    # -- exhaustive oracle -----------------------------------------------------

    def exact_embed(
        self, request: ChainRequest, limits: OracleLimits = OracleLimits()
    ) -> ForwardingGraph | None:
        """Exhaustive minimum-latency embedding, or None when infeasible.

        Enumerates every placement assignment and every simple-path choice
        per segment, subject to aggregate bandwidth feasibility and the same
        admission rule as admit. Never reserves anything. Raises
        InstanceTooLarge beyond the configured limits; refusing loudly beats
        a silently truncated search.
        """
        bw_kbps = self.catalog.profile(request.profile).bw_req_kbps
        chain = [self.catalog.vnf(name) for name in request.vnf_sequence]
        hosts = self.network.host_ids()
        if len(hosts) > limits.max_hosts:
            msg = f"{len(hosts)} hosts exceeds oracle limit {limits.max_hosts}"
            raise InstanceTooLarge(msg)
        if len(chain) > limits.max_chain:
            msg = f"chain length {len(chain)} exceeds oracle limit {limits.max_chain}"
            raise InstanceTooLarge(msg)
        usable = [h for h in hosts if h not in self.network.failed_hosts]
        proc_total = sum(vnf.proc_latency_ms for vnf in chain)

        path_cache: dict[tuple[int, int], list[tuple[float, list[int]]]] = {}

        def paths_between(a: int, b: int) -> list[tuple[float, list[int]]]:
            if (a, b) not in path_cache:
                raw = enumerate_simple_paths(
                    self.network, a, b, bw_kbps, max_paths=limits.max_paths_per_pair
                )
                keyed = sorted(
                    (path_key(self.network, path), path) for path in raw
                )
                path_cache[(a, b)] = [(key[0], path) for key, path in keyed]
            return path_cache[(a, b)]

        best: tuple | None = None  # (latency, hosts, flat links, segments)

        for assignment in itertools.product(usable, repeat=len(chain)):
            cpu_need: dict[int, int] = {}
            mem_need: dict[int, int] = {}
            for vnf, host_id in zip(chain, assignment):
                cpu_need[host_id] = cpu_need.get(host_id, 0) + vnf.cpu_demand
                mem_need[host_id] = mem_need.get(host_id, 0) + vnf.mem_demand
            if any(
                cpu_need[h] > self.network.available_cpu(h)
                or mem_need[h] > self.network.available_mem(h)
                for h in cpu_need
            ):
                continue
            points = [request.ingress, *assignment, request.egress]
            options = [
                paths_between(points[i], points[i + 1])
                for i in range(len(points) - 1)
            ]
            if any(not segment_options for segment_options in options):
                continue
            best = self._search_segments(
                request, assignment, options, bw_kbps, proc_total, best
            )

        if best is None:
            return None
        _, assignment, _, segments = best
        placements = tuple(
            (vnf.name, host_id) for vnf, host_id in zip(chain, assignment)
        )
        return ForwardingGraph(
            request_id=request.id,
            placements=placements,
            segments=segments,
            reserved_bw_kbps=bw_kbps,
        )

    def _search_segments(
        self, request, assignment, options, bw_kbps, proc_total, best
    ):
        """Depth-first choice of one path per segment, bounded by best latency."""
        chosen: list[LinkPath] = []

        def feasible(usage: dict[int, int]) -> bool:
            return all(
                kbps <= self.network.available_bw(link_id)
                for link_id, kbps in usage.items()
            )

        def dfs(index: int, latency: float, usage: dict[int, int]):
            nonlocal best
            if best is not None and latency + proc_total > best[0]:
                return
            if index == len(options):
                segments = tuple(chosen)
                predicted = predict_mos(request, segments, self.network, self.catalog)
                if predicted.mos < request.ela_target:
                    return
                flat = tuple(
                    link_id for segment in segments for link_id in segment
                )
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
                dfs(index + 1, latency + seg_latency, new_usage)
                chosen.pop()

        dfs(0, 0.0, {})
        return best

    # -- measurement ------------------------------------------------------------

    def monitor_window(
        self, window_index: int, flows: Iterable[DbEntry]
    ) -> tuple[list[QoeSample], list[QoeSample]]:
        """Measure the given live flows for one window.

        Returns (samples, breaching): one sample per flow, and those of them
        that breach the flow's ELA.
        flows are the live database entries in ascending request id; both
        lists come out in that order. Raw figures come from the flow's
        route figures (its current segments under the current link
        quality), the residual-driven throughput, and the injected stall
        level. Each metric is EWMA-smoothed with predictor_alpha before
        scoring; degraded flows are still measured so recovery stays
        observable. An entry keeps only its last breach_windows samples, all
        the breach rule reads, and its run outcome: the windows observed,
        those at or above its target, and those that breached.
        """
        alpha = self.policy.predictor_alpha
        keep = self.ela.breach_windows
        samples: list[QoeSample] = []
        breaching: list[QoeSample] = []
        for entry in flows:
            smoothed = self._smooth(entry, self._measure(entry, window_index), alpha)
            route = entry.route
            sample = estimate_mos(smoothed, route.profile)
            history = entry.history
            history.append(sample)
            del history[:-keep]
            samples.append(sample)
            entry.windows_observed += 1
            if sample.mos >= route.ela.target_mos:
                entry.windows_met += 1
            if ela_breached(history, route.ela):
                entry.breach_windows.append(window_index)
                breaching.append(sample)
        return samples, breaching

    def _measure(self, entry: DbEntry, window_index: int) -> FlowSample:
        """The flow's raw sample for one window; brings entry.route up to date."""
        network = self.network
        route = entry.route
        if route is None or route.graph is not entry.graph:
            route = entry.route = self._route_figures(entry)
            entry.smoothed = None  # the first window on a new graph is taken raw
        elif route.quality_epoch != network.quality_epoch:
            changed = network.quality_changed
            built = route.quality_epoch
            if any(changed.get(link_id, built) > built for link_id, _ in route.usage):
                route = entry.route = self._route_figures(entry)
            else:
                route.quality_epoch = network.quality_epoch
        # What this flow can push through: the smallest residual along its
        # path with its own reservation offered back, capped at the profile.
        residual_bw = network.residual_bw
        floor_kbps = min(residual_bw[link_id] + kbps for link_id, kbps in route.usage)
        metrics = route.metrics
        flow_id = entry.request.id
        return FlowSample(
            flow_id=flow_id,
            window_index=window_index,
            throughput_mbps=min(floor_kbps, route.bw_req_kbps) / KBPS_PER_MBPS,
            delay_ms=metrics.latency_ms,
            jitter_ms=metrics.jitter_ms,
            loss_pct=metrics.loss_pct,
            stall_ratio=self.stall_levels.get(flow_id, 0.0),
        )

    def _route_figures(self, entry: DbEntry) -> RouteFigures:
        request, graph = entry.request, entry.graph
        profile = self.catalog.profile(request.profile)
        return RouteFigures(
            graph=graph,
            quality_epoch=self.network.quality_epoch,
            metrics=path_metrics(
                graph.segments,
                self.network,
                self.catalog.proc_latencies(request.vnf_sequence),
            ),
            usage=tuple(graph.link_usage().items()),
            bw_req_kbps=profile.bw_req_kbps,
            profile=profile,
            ela=self.ela_for(request),
        )

    def _smooth(self, entry: DbEntry, raw: FlowSample, alpha: float) -> FlowSample:
        prev = entry.smoothed
        if prev is not None:
            raw = FlowSample(
                flow_id=raw.flow_id,
                window_index=raw.window_index,
                throughput_mbps=alpha * raw.throughput_mbps
                + (1 - alpha) * prev.throughput_mbps,
                delay_ms=alpha * raw.delay_ms + (1 - alpha) * prev.delay_ms,
                jitter_ms=alpha * raw.jitter_ms + (1 - alpha) * prev.jitter_ms,
                loss_pct=alpha * raw.loss_pct + (1 - alpha) * prev.loss_pct,
                stall_ratio=alpha * raw.stall_ratio + (1 - alpha) * prev.stall_ratio,
            )
        entry.smoothed = raw
        return raw

    def ela_for(self, request: ChainRequest) -> Ela:
        """The scenario-wide ELA shape with this request's own target."""
        return Ela(
            target_mos=request.ela_target,
            breach_windows=self.ela.breach_windows,
            compliance_budget=self.ela.compliance_budget,
        )

    def set_stall(self, flow_id: int, stall_ratio: float) -> None:
        """Set a flow's stall level; it persists until the next injection."""
        check_stall_ratio(stall_ratio)
        self.stall_levels[flow_id] = stall_ratio

    # -- self-healing -------------------------------------------------------------

    def handle_breach(self, entry: DbEntry) -> Action:
        """Escalating repair of a breaching flow.

        First try new segments with placements fixed; then a full re-embed
        that shuns the worst link of the current graph (highest loss, then
        highest latency); each stage consumes one of max_reroute_attempts.
        When nothing predicted to meet the target fits, the flow is marked
        degraded but keeps running on what it has. The network is updated
        here; the entry is left for the orchestrator to update.
        """
        request, graph = entry.request, entry.graph
        chain = range(len(graph.placements))
        segments = range(len(graph.segments))
        stages = [
            (ActionKind.REROUTED, (), frozenset()),
            (ActionKind.MIGRATED, chain, frozenset({self._worst_link(graph)})),
        ]
        for kind, positions, exclude_links in stages[: self.policy.max_reroute_attempts]:
            new_graph = self._replan(request, graph, positions, segments, exclude_links)
            if not isinstance(new_graph, Rejected):
                self._commit(graph, new_graph, positions, segments)
                return Action(kind, request.id, new_graph)
        return Action(ActionKind.MARKED_DEGRADED, request.id)

    def _worst_link(self, graph: ForwardingGraph) -> int:
        def badness(link_id: int):
            quality = self.network.link_quality(link_id)
            return (quality.loss_pct, quality.latency_ms, link_id)

        return max(set(graph.all_links()), key=badness)

    def handle_host_failure(
        self, evicted, entries: Mapping[int, DbEntry]
    ) -> list[Action]:
        """Repair every live flow whose graph touches a failed host.

        evicted lists the placements the failed host holds; entries maps
        request id to database entry. Only what _failure_damage names is
        planned anew, without the MOS gate; the rest of the graph stays.
        Flows are handled in ascending request id. A repaired flow is
        answered with Migrated if it lost a placement, else Rerouted; one
        that cannot be repaired is fully released and answered with Failed.
        """
        for request_id, _ in evicted:
            if request_id not in entries:
                raise UnknownRequest(f"evicted placement of unknown request {request_id}")
        actions = []
        for request_id in sorted(entries):
            entry = entries[request_id]
            graph = entry.graph
            lost, segments = self._failure_damage(entry.request, graph)
            if not (entry.is_live and segments):
                continue
            new_graph = self._replan(entry.request, graph, lost, segments)
            if isinstance(new_graph, Rejected):
                self.release_flow(graph)
                actions.append(Action(ActionKind.FAILED, request_id))
            else:
                self._commit(graph, new_graph, lost, segments)
                kind = ActionKind.MIGRATED if lost else ActionKind.REROUTED
                actions.append(Action(kind, request_id, new_graph))
        return actions

    # -- the reservation ledger ---------------------------------------------------

    def release_flow(self, graph: ForwardingGraph) -> None:
        """Release everything a flow's graph holds."""
        self._commit(graph, None, range(len(graph.placements)), range(len(graph.segments)))

    def _commit(
        self,
        old: ForwardingGraph | None,
        new: ForwardingGraph | None,
        positions: Collection[int],
        segments: Collection[int],
    ) -> None:
        """Swap old's parts at positions and segments for new's on the ledger.

        One release of what old holds there, then one reserve of new's
        parts. Either graph may be None: admission has nothing to give back,
        a flow that ends nothing to take. A failed host's holdings are
        released here like any other. A new plan was checked against a view
        of this very state, so a reserve that fails means planner and ledger
        disagree, which is fatal.
        """
        if old is not None:
            usage, records = self._parts(old, positions, segments)
            placement_ids = [record.placement_id for record in records]
            self.network.release(link_demands=usage, placement_ids=placement_ids)
        if new is not None:
            usage, records = self._parts(new, positions, segments)
            try:
                self.network.reserve(link_demands=usage, placements=records)
            except SimulatorError as exc:
                msg = f"planned reservation no longer fits: {exc}"
                raise InvariantViolation(msg) from exc

    def _parts(
        self,
        graph: ForwardingGraph,
        positions: Collection[int],
        segments: Collection[int],
    ) -> tuple[dict[int, int], list[PlacementRecord]]:
        """What graph holds at positions and segments: kbps per link, placements."""
        usage: dict[int, int] = {}
        for index in segments:
            for link_id in graph.segments[index]:
                usage[link_id] = usage.get(link_id, 0) + graph.reserved_bw_kbps
        records = []
        for position in sorted(positions):
            name, host_id = graph.placements[position]
            vnf = self.catalog.vnf(name)
            records.append(
                PlacementRecord(
                    (graph.request_id, position), host_id, vnf.cpu_demand, vnf.mem_demand
                )
            )
        return usage, records

    def graph_latency(self, graph: ForwardingGraph, request: ChainRequest) -> float:
        """End-to-end latency of an embedding, processing included."""
        return path_metrics(
            graph.segments,
            self.network,
            self.catalog.proc_latencies(request.vnf_sequence),
        ).latency_ms
