"""SDN controller: admission, embedding, flow monitoring and self-healing.

The controller decides and the orchestrator records. The controller keeps
the substrate, the catalog, the ELA, the policy and the injected stall
levels, and nothing per flow: each flow's request, graph, status,
measurement carry and route figures live on its entry in the
orchestrator's database. The controller scores the entries it is handed
and answers with graphs, Actions or released holdings; it never changes a
flow's status.

The controller owns the reservation ledger. Planning always runs on a
resource view first and touches the real network only once a whole plan is
known to fit, so admission and repair are transactional. Every choice
(candidate host, path, worst link) is made under a total order, which makes
identical inputs produce identical outputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Mapping

from .errors import (
    InstanceTooLarge,
    InvalidRange,
    InvariantViolation,
    SimulatorError,
    UnknownFlow,
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


@dataclass(frozen=True)
class BreachAlert:
    flow_id: int
    window_index: int
    mos: float


class ResourceView:
    """NetworkState read interface with tentative resource deltas on top.

    A positive delta offers resources back (a flow replanning may reuse its
    own holdings); a negative delta tracks demand pending within a plan.
    Topology, failures and link quality are the state's own objects: no
    delta touches them.
    """

    def __init__(self, state: NetworkState):
        self._state = state
        self.nodes = state.nodes
        self.links = state.links
        self.failed_hosts = state.failed_hosts
        self.adjacency = state.adjacency
        self.link_quality = state.link_quality
        self._bw: dict[int, int] = {}
        self._cpu: dict[int, int] = {}
        self._mem: dict[int, int] = {}

    def fork(self) -> "ResourceView":
        copy = ResourceView(self._state)
        copy._bw = dict(self._bw)
        copy._cpu = dict(self._cpu)
        copy._mem = dict(self._mem)
        return copy

    def available_bw(self, link_id: int) -> int:
        return self._state.residual_bw[link_id] + self._bw.get(link_id, 0)

    def available_cpu(self, host_id: int) -> int:
        return self._state.available_cpu(host_id) + self._cpu.get(host_id, 0)

    def available_mem(self, host_id: int) -> int:
        return self._state.available_mem(host_id) + self._mem.get(host_id, 0)

    def add_bw(self, link_id: int, delta: int) -> None:
        self._bw[link_id] = self._bw.get(link_id, 0) + delta

    def add_cpu(self, host_id: int, delta: int) -> None:
        self._cpu[host_id] = self._cpu.get(host_id, 0) + delta

    def add_mem(self, host_id: int, delta: int) -> None:
        self._mem[host_id] = self._mem.get(host_id, 0) + delta


@dataclass(frozen=True)
class RouteFigures:
    """What measuring a flow reads off its graph, request and link quality.

    Built for one graph object under one quality epoch, and valid while the
    entry still holds that object and the network's quality_epoch has not
    moved: a reroute or migration installs a new graph object, and only
    degrade_link changes link quality. Residual bandwidth changes at every
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


@dataclass
class _Plan:
    placements: tuple[tuple[str, int], ...]
    segments: tuple[LinkPath, ...]
    predicted: QoeSample


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
        plan = self._plan_chain(request, ResourceView(self.network), frozenset())
        if isinstance(plan, Rejected):
            return plan
        profile = self.catalog.profile(request.profile)
        graph = ForwardingGraph(
            request_id=request.id,
            placements=plan.placements,
            segments=plan.segments,
            reserved_bw_kbps=round(profile.bw_req_mbps * KBPS_PER_MBPS),
        )
        self._reserve_graph(graph)
        return graph

    def _plan_chain(
        self,
        request: ChainRequest,
        view: ResourceView,
        exclude_links: frozenset[int],
    ) -> _Plan | Rejected:
        profile = self.catalog.profile(request.profile)
        bw_kbps = round(profile.bw_req_mbps * KBPS_PER_MBPS)
        plan_view = view.fork()
        anchor = request.ingress
        placements: list[tuple[str, int]] = []
        segments: list[LinkPath] = []
        for vnf_name in request.vnf_sequence:
            placed = self._place_next(
                plan_view, anchor, self.catalog.vnf(vnf_name), bw_kbps, exclude_links
            )
            if isinstance(placed, RejectReason):
                return Rejected(placed)
            anchor, segment = placed
            placements.append((vnf_name, anchor))
            segments.append(segment)
        final = shortest_feasible_path(
            plan_view, anchor, request.egress, bw_kbps, exclude_links
        )
        if final is None:
            return Rejected(RejectReason.NO_PATH)
        segments.append(tuple(final))
        # Prediction reads the base view: the plan's own pending demand must
        # not mask the bandwidth the flow is about to hold.
        predicted = predict_mos(request, segments, view, self.catalog)
        if predicted.mos < request.ela_target:
            return Rejected(RejectReason.QOE_BELOW_TARGET, predicted.mos)
        return _Plan(tuple(placements), tuple(segments), predicted)

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
        one shortest-path tree. Returns the host and the segment to it, or
        why no host was chosen.
        """
        candidates = [
            host_id
            for host_id in self.network.host_ids()
            if host_id not in view.failed_hosts
            and view.available_cpu(host_id) >= vnf.cpu_demand
            and view.available_mem(host_id) >= vnf.mem_demand
        ]
        if not candidates:
            return RejectReason.NO_HOST
        tree = shortest_path_tree(view, anchor, bw_kbps, exclude_links)
        options = [
            (tree[h][0], self._utilization(view, h), h, tree[h][2])
            for h in candidates
            if h in tree
        ]
        if not options:
            return RejectReason.NO_PATH
        _, _, host_id, segment = min(options)
        view.add_cpu(host_id, -vnf.cpu_demand)
        view.add_mem(host_id, -vnf.mem_demand)
        for link_id in segment:
            view.add_bw(link_id, -bw_kbps)
        return host_id, segment

    def _utilization(self, view, host_id: int) -> float:
        node = self.network.nodes[host_id]
        cpu_util = (
            (node.cpu_capacity - view.available_cpu(host_id)) / node.cpu_capacity
            if node.cpu_capacity
            else 0.0
        )
        mem_util = (
            (node.mem_capacity - view.available_mem(host_id)) / node.mem_capacity
            if node.mem_capacity
            else 0.0
        )
        return max(cpu_util, mem_util)

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
        profile = self.catalog.profile(request.profile)
        bw_kbps = round(profile.bw_req_mbps * KBPS_PER_MBPS)
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
    ) -> tuple[list[QoeSample], list[BreachAlert]]:
        """Measure the given live flows for one window and collect breach alerts.

        flows are the live database entries in ascending request id; the
        samples and alerts come out in that order. Raw figures come from the
        flow's route figures (its current segments under the current link
        quality), the residual-driven throughput, and the injected stall
        level. Each metric is EWMA-smoothed with predictor_alpha before
        scoring; degraded flows are still measured so recovery stays
        observable. An entry keeps only its last breach_windows samples, all
        the breach rule reads.
        """
        alpha = self.policy.predictor_alpha
        keep = self.ela.breach_windows
        samples: list[QoeSample] = []
        alerts: list[BreachAlert] = []
        for entry in flows:
            smoothed = self._smooth(entry, self._measure(entry, window_index), alpha)
            route = entry.route
            sample = estimate_mos(smoothed, route.profile)
            history = entry.history
            history.append(sample)
            del history[:-keep]
            samples.append(sample)
            if ela_breached(history, route.ela):
                alerts.append(BreachAlert(entry.request.id, window_index, sample.mos))
        return samples, alerts

    def _measure(self, entry: DbEntry, window_index: int) -> FlowSample:
        """The flow's raw sample for one window; brings entry.route up to date."""
        network = self.network
        route = entry.route
        if (
            route is None
            or route.graph is not entry.graph
            or route.quality_epoch != network.quality_epoch
        ):
            route = entry.route = self._route_figures(entry)
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
            bw_req_kbps=round(profile.bw_req_mbps * KBPS_PER_MBPS),
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
            window_ms=self.ela.window_ms,
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
        flow_id = request.id
        bw_kbps = graph.reserved_bw_kbps

        view = ResourceView(self.network)
        for link_id, kbps in graph.link_usage().items():
            view.add_bw(link_id, kbps)
        segments = self._replan_segments(request, graph, view, bw_kbps)
        # Identical segments mean there is nothing better to switch to;
        # that attempt failed rather than trivially succeeded.
        if segments is not None and segments != graph.segments:
            predicted = predict_mos(request, segments, view, self.catalog)
            if predicted.mos >= request.ela_target:
                new_graph = ForwardingGraph(request.id, graph.placements, segments, bw_kbps)
                self._swap_bandwidth(graph, new_graph)
                return Action(ActionKind.REROUTED, flow_id, new_graph)

        if self.policy.max_reroute_attempts >= 2:
            worst = self._worst_link(graph)
            view = ResourceView(self.network)
            for link_id, kbps in graph.link_usage().items():
                view.add_bw(link_id, kbps)
            for vnf_name, host_id in graph.placements:
                vnf = self.catalog.vnf(vnf_name)
                view.add_cpu(host_id, vnf.cpu_demand)
                view.add_mem(host_id, vnf.mem_demand)
            plan = self._plan_chain(request, view, frozenset({worst}))
            if not isinstance(plan, Rejected):
                new_graph = ForwardingGraph(
                    request.id, plan.placements, plan.segments, bw_kbps
                )
                self._swap_graph(request.id, graph, new_graph)
                return Action(ActionKind.MIGRATED, flow_id, new_graph)

        return Action(ActionKind.MARKED_DEGRADED, flow_id)

    def _replan_segments(
        self, request: ChainRequest, graph: ForwardingGraph, view: ResourceView, bw_kbps: int
    ) -> tuple[LinkPath, ...] | None:
        points = [request.ingress, *(host for _, host in graph.placements), request.egress]
        plan_view = view.fork()
        segments: list[LinkPath] = []
        for index in range(len(points) - 1):
            path = shortest_feasible_path(
                plan_view, points[index], points[index + 1], bw_kbps
            )
            if path is None:
                return None
            for link_id in path:
                plan_view.add_bw(link_id, -bw_kbps)
            segments.append(tuple(path))
        return tuple(segments)

    def _worst_link(self, graph: ForwardingGraph) -> int:
        def badness(link_id: int):
            quality = self.network.link_quality(link_id)
            return (quality.loss_pct, quality.latency_ms, link_id)

        return max(set(graph.all_links()), key=badness)

    def handle_host_failure(
        self, evicted, entries: Mapping[int, DbEntry]
    ) -> list[Action]:
        """Repair every flow that lost a placement to a host failure.

        entries maps request id to database entry. Only the evicted chain
        positions are re-placed; surviving placements stay where they are
        and only the segments adjacent to a change are recomputed. Flows are
        handled in ascending request id. A flow that cannot be repaired is
        fully released and answered with a Failed action.
        """
        affected: dict[int, list[int]] = {}
        for request_id, position in evicted:
            affected.setdefault(request_id, []).append(position)
        actions = []
        for request_id in sorted(affected):
            entry = entries.get(request_id)
            if entry is None:
                raise UnknownFlow(f"evicted placement of unknown flow {request_id}")
            actions.append(
                self._migrate_after_failure(entry, sorted(affected[request_id]))
            )
        return actions

    def _migrate_after_failure(
        self, entry: DbEntry, changed_positions: list[int]
    ) -> Action:
        request, graph = entry.request, entry.graph
        flow_id = request.id
        bw_kbps = graph.reserved_bw_kbps
        recompute: set[int] = set()
        for position in changed_positions:
            recompute.add(position)
            recompute.add(position + 1)

        # The evicted placements' cpu/mem were wiped with the host; only the
        # bandwidth of the segments being rebuilt comes back to the planner.
        view = ResourceView(self.network)
        for seg_index in recompute:
            for link_id in graph.segments[seg_index]:
                view.add_bw(link_id, bw_kbps)
        plan_view = view.fork()

        points = [request.ingress, *(host for _, host in graph.placements), request.egress]
        new_placements = list(graph.placements)
        new_segments = list(graph.segments)
        feasible = True
        for position in changed_positions:
            vnf = self.catalog.vnf(graph.placements[position][0])
            placed = self._place_next(
                plan_view, points[position], vnf, bw_kbps, frozenset()
            )
            if isinstance(placed, RejectReason):
                feasible = False
                break
            host_id, segment = placed
            new_placements[position] = (vnf.name, host_id)
            new_segments[position] = segment
            points[position + 1] = host_id

        if feasible:
            for seg_index in sorted(recompute):
                if seg_index in changed_positions:
                    continue  # already rebuilt as the incoming segment
                path = shortest_feasible_path(
                    plan_view, points[seg_index], points[seg_index + 1], bw_kbps
                )
                if path is None:
                    feasible = False
                    break
                new_segments[seg_index] = tuple(path)
                for link_id in path:
                    plan_view.add_bw(link_id, -bw_kbps)

        if not feasible:
            # Everything the flow still holds goes back: the remaining
            # segment bandwidth and the placements that survived the host.
            surviving = [
                (flow_id, position)
                for position in range(len(graph.placements))
                if position not in changed_positions
            ]
            self.network.release(
                link_demands=graph.link_usage(), placement_ids=surviving
            )
            return Action(ActionKind.FAILED, flow_id)

        new_graph = ForwardingGraph(
            request.id, tuple(new_placements), tuple(new_segments), bw_kbps
        )
        old_bw: dict[int, int] = {}
        new_bw: dict[int, int] = {}
        for seg_index in sorted(recompute):
            for link_id in graph.segments[seg_index]:
                old_bw[link_id] = old_bw.get(link_id, 0) + bw_kbps
            for link_id in new_graph.segments[seg_index]:
                new_bw[link_id] = new_bw.get(link_id, 0) + bw_kbps
        new_records = [
            PlacementRecord(
                placement_id=(flow_id, position),
                host_id=new_placements[position][1],
                cpu=self.catalog.vnf(new_placements[position][0]).cpu_demand,
                mem=self.catalog.vnf(new_placements[position][0]).mem_demand,
            )
            for position in changed_positions
        ]
        self.network.release(link_demands=old_bw)
        self._reserve_or_die(link_demands=new_bw, placements=new_records)
        return Action(ActionKind.MIGRATED, flow_id, new_graph)

    # -- teardown and reservation plumbing ----------------------------------------

    def release_flow(self, graph: ForwardingGraph) -> dict[str, int]:
        """Release everything a completing flow's graph holds; return the totals."""
        usage = graph.link_usage()
        placement_ids = [
            (graph.request_id, pos) for pos in range(len(graph.placements))
        ]
        cpu_total = sum(
            self.catalog.vnf(name).cpu_demand for name, _ in graph.placements
        )
        mem_total = sum(
            self.catalog.vnf(name).mem_demand for name, _ in graph.placements
        )
        self.network.release(link_demands=usage, placement_ids=placement_ids)
        return {
            "cpu": cpu_total,
            "mem": mem_total,
            "bandwidth_kbps": sum(usage.values()),
        }

    def _reserve_graph(self, graph: ForwardingGraph) -> None:
        records = [
            PlacementRecord(
                placement_id=(graph.request_id, position),
                host_id=host_id,
                cpu=self.catalog.vnf(name).cpu_demand,
                mem=self.catalog.vnf(name).mem_demand,
            )
            for position, (name, host_id) in enumerate(graph.placements)
        ]
        self.network.reserve(link_demands=graph.link_usage(), placements=records)

    def _swap_bandwidth(self, old: ForwardingGraph, new: ForwardingGraph) -> None:
        self.network.release(link_demands=old.link_usage())
        self._reserve_or_die(link_demands=new.link_usage())

    def _swap_graph(self, flow_id: int, old: ForwardingGraph, new: ForwardingGraph) -> None:
        placement_ids = [(flow_id, pos) for pos in range(len(old.placements))]
        self.network.release(link_demands=old.link_usage(), placement_ids=placement_ids)
        records = [
            PlacementRecord(
                placement_id=(flow_id, position),
                host_id=host_id,
                cpu=self.catalog.vnf(name).cpu_demand,
                mem=self.catalog.vnf(name).mem_demand,
            )
            for position, (name, host_id) in enumerate(new.placements)
        ]
        self._reserve_or_die(link_demands=new.link_usage(), placements=records)

    def _reserve_or_die(self, **kwargs) -> None:
        # The plan was validated against a view of this very state, so a
        # failing reserve means planner and ledger disagree. Fatal.
        try:
            self.network.reserve(**kwargs)
        except SimulatorError as exc:
            msg = f"planned reservation no longer fits: {exc}"
            raise InvariantViolation(msg) from exc

    def graph_latency(self, graph: ForwardingGraph, request: ChainRequest) -> float:
        """End-to-end latency of an embedding, processing included."""
        return path_metrics(
            graph.segments,
            self.network,
            self.catalog.proc_latencies(request.vnf_sequence),
        ).latency_ms
