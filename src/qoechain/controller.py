"""SDN controller: admission, embedding, flow monitoring and self-healing.

The controller decides and the orchestrator records. The controller keeps
the substrate, the catalog, the ELA, the policy and the injected stall
levels, and nothing per flow: each flow's request, graph, status,
measurement carry, settled sample, run of windows below target, route
figures (its graph's path metrics under the current link quality) and
breached windows live on its entry in the orchestrator's database. The MOS
gate computes a plan's path metrics to predict its score, so an admitted
flow, and one repaired under the gate, starts with those as its route
figures, and its first window computes none; host-failure repair has no
gate and leaves them to the first window.
Monitoring reads the target from the request, the profile from the catalog
and the breach rule's window count from the ELA. The controller scores the
entries it is handed, writing only their measurement fields and breached
windows, and answers with graphs or Actions; it never changes a flow's
graph or status. A host failure is repaired from the live flows' graphs
alone.

A flow holds its sample from the window whose smoothed figures are the
EWMA's fixed point, audit_measurement's rule: folding the same raw
figures in again would leave every one unchanged. Those inputs change
only at three events, and each reaches just the flows it touches: a
degradation through handle_degradation, a stall level through set_stall
and a new graph through the repair that commits it. A window that every
live flow ends holding its sample, none below target, is quiet:
monitor_window says so, and the kernel repeats its sample list until the
next event.

The controller owns the reservation ledger. Admission and every repair
are planned by one routine on a resource view, and one ledger commit,
the only writer of the ledger, touches the real network only once a whole
plan is known to fit, so admission and repair are transactional. A failed
host's holdings stay reserved until that commit releases them. Every
choice (candidate host, path, worst link) is made under a total order,
which makes identical inputs produce identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Collection, Iterable, Mapping, NamedTuple

from .errors import (
    InvalidRange,
    InvariantViolation,
    SimulatorError,
)
from .network import NetworkState, PathMetrics
from .qoe import (
    Ela,
    FlowSample,
    QoeSample,
    check_stall_ratio,
    estimate_mos,
    predict_mos,
)
from .routing import floor_tier, shortest_feasible_path, shortest_path_tree
from .service import (
    AppProfile,
    ChainRequest,
    ForwardingGraph,
    LinkPath,
    ServiceCatalog,
    VnfType,
    path_metrics,
)
from .units import KBPS_PER_MBPS

if TYPE_CHECKING:
    from .orchestrator import DbEntry

@dataclass(frozen=True)
class PolicyConfig:
    """Controller knobs: the EWMA factor monitoring smooths with.

    Path weight (latency), the candidate tie-break (lowest utilization,
    then lowest host id), the admission rule (predicted MOS at or above
    the request's target) and breach repair's two plans (handle_breach)
    are fixed behavior, not configuration.
    """

    predictor_alpha: float = 0.3

    def __post_init__(self):
        if not 0 < self.predictor_alpha <= 1:
            msg = "predictor_alpha must be in (0, 1]"
            raise InvalidRange(msg, field="predictor_alpha")


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


class Plan(NamedTuple):
    """A graph that fits, and with the MOS gate, the path metrics it was scored on.

    route is None for a plan made without the gate.
    """

    graph: ForwardingGraph
    route: PathMetrics | None


@dataclass(frozen=True)
class Action:
    kind: ActionKind
    flow_id: int
    new_graph: ForwardingGraph | None = None


class ResourceView:
    """The NetworkState reads planning needs, on the view's own residuals.

    The three residual tables are copies a plan writes freely: giving a
    replanned flow's holdings back raises them, demand pending within the
    plan lowers them, and a link the plan shuns is set to -1. The
    topology (`edges`), failures, link quality and the floor are the
    state's own objects, so a view built before a degradation searches at
    the new latency; a floor tree reads no residual, so a tree built
    during one plan serves every later one. Discarding the view discards
    the plan; only the ledger commit writes the state's residuals.
    """

    def __init__(self, state: NetworkState):
        self.nodes = state.nodes
        self.links = state.links
        self.failed_hosts = state.failed_hosts
        self.edges = state.edges
        self.quality = state.quality
        self.floor = state.floor
        self.residual_bw = state.residual_bw.copy()
        self.residual_cpu = state.residual_cpu.copy()
        self.residual_mem = state.residual_mem.copy()


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

    def admit(self, request: ChainRequest) -> Plan | Rejected:
        """Greedy chain embedding with QoE-gated admission.

        Walks the chain from the ingress, placing each VNF on the host with
        the cheapest feasible path from the current anchor (ties: lowest
        utilization, then lowest host id), then stitches the final segment
        to the egress. The candidate is admitted only if its predicted MOS
        reaches the request's target; on admission every resource is
        reserved in one transaction. The plan's route figures are the flow's
        first.
        """
        chain = range(len(request.vnf_sequence))
        segments = range(len(chain) + 1)
        plan = self._replan(request, None, chain, segments)
        if not isinstance(plan, Rejected):
            self._commit(request, None, plan.graph)
        return plan

    def _replan(
        self,
        request: ChainRequest,
        graph: ForwardingGraph | None,
        positions: Collection[int],
        segments: Collection[int],
        exclude_links: frozenset[int] = frozenset(),
        gate: bool = True,
    ) -> Plan | Rejected:
        """Plan new hosts for positions and new paths for segments; reserve nothing.

        graph is the flow's current graph, or None for a new request, which
        passes every position and segment. segments must include the one
        into each position. Planning runs on one view with what the flow
        holds at those positions and segments offered back. Positions are
        re-placed first, in ascending order, each with the segment into it;
        the other segments are then rebuilt in ascending order. A plan
        identical to the graph is no repair. With gate, the plan must reach
        the request's target MOS, predicted from its segments under the
        current link quality, and the plan carries the path metrics the
        prediction read; host-failure repair alone passes gate=False.
        Each link in exclude_links is shunned: the view gives it a residual
        of -1, below any demand.
        """
        view = ResourceView(self.network)
        if graph is None:
            bw_kbps = self.catalog.profile(request.profile).bw_req_kbps
            hosts = [None] * len(request.vnf_sequence)
            paths: list[LinkPath] = [()] * (len(hosts) + 1)
        else:
            bw_kbps = graph.reserved_bw_kbps
            hosts = list(graph.hosts)
            paths = list(graph.segments)
            for index in segments:
                for link_id in paths[index]:
                    view.residual_bw[link_id] += bw_kbps
            for position in positions:
                vnf = self.catalog.vnf(request.vnf_sequence[position])
                view.residual_cpu[hosts[position]] += vnf.cpu_demand
                view.residual_mem[hosts[position]] += vnf.mem_demand
        for link_id in exclude_links:
            view.residual_bw[link_id] = -1
        points = [request.ingress, *hosts, request.egress]
        for position in sorted(positions):
            vnf = self.catalog.vnf(request.vnf_sequence[position])
            placed = self._place_next(view, points[position], vnf, bw_kbps)
            if isinstance(placed, RejectReason):
                return Rejected(placed)
            points[position + 1], paths[position] = placed
        for index in sorted(set(segments) - set(positions)):
            path = shortest_feasible_path(view, points[index], points[index + 1], bw_kbps)
            if path is None:
                return Rejected(RejectReason.NO_PATH)
            paths[index] = tuple(path)
            for link_id in path:
                view.residual_bw[link_id] -= bw_kbps
        if graph is not None and tuple(paths) == graph.segments:
            return Rejected(RejectReason.NO_PATH)
        route = None
        if gate:
            predicted, route = predict_mos(request, paths, view, self.catalog)
            if predicted.mos < request.ela_target:
                return Rejected(RejectReason.QOE_BELOW_TARGET, predicted.mos)
        return Plan(ForwardingGraph(tuple(points[1:-1]), tuple(paths), bw_kbps), route)

    def _failure_damage(
        self, request: ChainRequest, graph: ForwardingGraph
    ) -> tuple[set[int], set[int]]:
        """Where failed hosts break graph: (positions, segments).

        The positions are those placed on a failed host; the segments are
        those on either side of such a position or forwarding through one.
        Only host-failure repair asks, once per live flow.
        """
        failed = self.network.failed_hosts
        lost = {p for p, host_id in enumerate(graph.hosts) if host_id in failed}
        segments = {index for p in lost for index in (p, p + 1)}
        node = request.ingress
        for index, segment in enumerate(graph.segments):
            for hop, link_id in enumerate(segment):
                if hop and node in failed:
                    segments.add(index)
                node = self.network.links[link_id].other(node)
        return lost, segments

    def _place_next(
        self, view: ResourceView, anchor: int, vnf: VnfType, bw_kbps: int
    ) -> tuple[int, LinkPath] | RejectReason:
        """Place one VNF after anchor and take its demand out of the view.

        The host is the candidate with the cheapest feasible path from the
        anchor (ties: lowest utilization, then lowest host id). A host is a
        candidate when it has not failed and its CPU and memory fit. The
        anchor's floor tree is walked in key order, and each host's fit is
        tested as the walk reaches it: the fitting hosts at the nearest
        floor latency are every host that can win when each of their
        routes is clean. Only when the walk gives no such answer is the set
        of every fitting host built: when a route is not clean, one
        shortest-path tree bounded at the nearest fitting host holds the
        candidates instead, and when no fitting host is reachable, an empty
        set tells NoHost from NoPath. So a NoHost rejection searches
        nothing in the view, though it may build the anchor's floor tree,
        which is a cache. Each candidate's utilization is read off the
        view's residuals, and the best is kept as they are read. Returns
        the host and the segment to it, or why no host was chosen.
        """
        residual_cpu, residual_mem = view.residual_cpu, view.residual_mem
        failed_hosts = view.failed_hosts
        cpu_demand, mem_demand = vnf.cpu_demand, vnf.mem_demand

        def fits(node: int) -> bool:
            # Only hosts are keys of the CPU table, and -1 fits no demand.
            return (
                residual_cpu.get(node, -1) >= cpu_demand
                and residual_mem[node] >= mem_demand
                and node not in failed_hosts
            )

        tier = floor_tier(view, anchor, bw_kbps, fits)
        if not tier:
            fitting = {host_id for host_id in self.network.host_ids if fits(host_id)}
            if not fitting:
                return RejectReason.NO_HOST
            if tier is None:
                tree = shortest_path_tree(view, anchor, bw_kbps, fitting)
                tier = {host_id: tree[host_id] for host_id in fitting if host_id in tree}
        capacity_cpu, capacity_mem = self.network.capacity["cpu"], self.network.capacity["mem"]
        best = None
        for host_id, (latency, _, segment) in tier.items():
            cap_cpu, cap_mem = capacity_cpu[host_id], capacity_mem[host_id]
            utilization = max(
                (cap_cpu - residual_cpu[host_id]) / cap_cpu if cap_cpu else 0.0,
                (cap_mem - residual_mem[host_id]) / cap_mem if cap_mem else 0.0,
            )
            option = (latency, utilization, host_id, segment)
            if best is None or option < best:
                best = option
        if best is None:
            return RejectReason.NO_PATH
        _, _, host_id, segment = best
        residual_cpu[host_id] -= cpu_demand
        residual_mem[host_id] -= mem_demand
        for link_id in segment:
            view.residual_bw[link_id] -= bw_kbps
        return host_id, segment

    # -- measurement ------------------------------------------------------------

    def monitor_window(
        self, window_index: int, flows: Iterable[DbEntry]
    ) -> tuple[list[QoeSample], list[DbEntry], bool]:
        """Measure the given live flows for one window.

        Returns (samples, breaching, quiet): one QoeSample per flow, the
        entries of those that breach the ELA, and whether the window is
        quiet.
        flows are the live database entries in ascending request id; both
        lists come out in that order. Raw figures come from the flow's
        route figures (the path metrics of its current segments under the
        current link quality, seeded by the MOS gate or computed here when
        the flow has none), the rate its graph reserves as throughput,
        and the injected stall level. Each metric is EWMA-smoothed with
        predictor_alpha before scoring against the request's profile;
        degraded flows are still measured so recovery stays observable. A
        window scoring strictly below the request's target extends the
        entry's run of such windows and any other ends it; a flow breaches
        while that run is at least the ELA's breach_windows long, and the
        entry keeps the index of each window that breached.

        A settled flow is not smoothed or scored again. Smoothed figures are
        a function of the raw inputs (route figures, throughput, stall level)
        and the last smoothed figures, so from the window whose figures a
        fold of the same raw inputs would not move (audit_measurement's
        rule, which _smooth applies) every window gives the same sample.
        entry.settled holds it, and a window that finds it returns the same
        object unmeasured, until a degradation on the route
        (handle_degradation), a new stall level (set_stall) or a repair that
        commits a new graph moves a raw input and drops it.

        A window is quiet when its flows all end it holding their sample,
        none below target: until the next event, each later window would
        hand back the same samples and breach nothing, so the kernel repeats
        the window's list instead of asking again.
        """
        alpha = self.policy.predictor_alpha
        breach_after = self.ela.breach_windows
        profile_of = self.catalog.profile
        samples: list[QoeSample] = []
        breaching: list[DbEntry] = []
        quiet = True
        for entry in flows:
            request = entry.request
            sample = entry.settled
            if sample is None:
                sample = self._measure(entry, profile_of(request.profile), alpha)
                quiet = quiet and entry.settled is not None
            samples.append(sample)
            if sample.mos >= request.ela_target:
                entry.windows_below = 0
            else:
                quiet = False
                entry.windows_below += 1
                if entry.windows_below >= breach_after:
                    entry.breach_windows.append(window_index)
                    breaching.append(entry)
        return samples, breaching, quiet

    def _measure(self, entry: DbEntry, profile: AppProfile, alpha: float) -> QoeSample:
        """The flow's sample for one window; brings its monitoring state up to date."""
        if entry.route is None:
            entry.route = self.route_of(entry)
        entry.smoothed, sample, still = self.measurement(entry, entry.route, profile, alpha)
        entry.settled = sample if still else None
        return sample

    def route_of(self, entry: DbEntry) -> PathMetrics:
        """The path metrics of the flow's graph under the current link quality."""
        request = entry.request
        return path_metrics(
            entry.graph.segments,
            self.network,
            self.catalog.proc_latencies(request.vnf_sequence),
        )

    def measurement(
        self, entry: DbEntry, route: PathMetrics, profile: AppProfile, alpha: float
    ) -> tuple[FlowSample, QoeSample, bool]:
        """One window's measurement of the flow on route figures; writes nothing.

        The raw figures are route, the rate the graph reserves as throughput
        and the flow's stall level. Returns the smoothed figures, their
        sample, and whether the figures are the EWMA's fixed point (_smooth).
        """
        request = entry.request
        throughput = entry.graph.reserved_bw_kbps / KBPS_PER_MBPS
        stall = self.stall_levels.get(request.id, 0.0)
        raw = FlowSample(request.id, throughput, *route, stall)
        smoothed, still = self._smooth(entry.smoothed, raw, alpha)
        return smoothed, estimate_mos(smoothed, profile), still

    @staticmethod
    def _smooth(prev: FlowSample | None, raw: FlowSample, alpha: float) -> tuple[FlowSample, bool]:
        """Fold raw into prev: the smoothed figures, and whether they are a fixed point.

        The figures are every field of a FlowSample after its flow id, each
        folded as alpha * raw + (1 - alpha) * prev; with no prev, raw is
        taken at face value. They are a fixed point, by audit_measurement's
        rule, when folding raw into them again would leave every one as it is.
        """
        flow_id, throughput, delay, jitter, loss, stall = raw
        keep = 1 - alpha
        smoothed = raw
        if prev is not None:
            _, last_throughput, last_delay, last_jitter, last_loss, last_stall = prev
            smoothed = FlowSample(
                flow_id,
                alpha * throughput + keep * last_throughput,
                alpha * delay + keep * last_delay,
                alpha * jitter + keep * last_jitter,
                alpha * loss + keep * last_loss,
                alpha * stall + keep * last_stall,
            )
        _, new_throughput, new_delay, new_jitter, new_loss, new_stall = smoothed
        return smoothed, (
            alpha * throughput + keep * new_throughput == new_throughput
            and alpha * delay + keep * new_delay == new_delay
            and alpha * jitter + keep * new_jitter == new_jitter
            and alpha * loss + keep * new_loss == new_loss
            and alpha * stall + keep * new_stall == new_stall
        )

    def handle_degradation(self, link_id: int, flows: Iterable[DbEntry]) -> None:
        """Bring the given live flows up to date after link_id changed quality.

        A flow whose graph crosses the link loses its route figures and its
        held sample; its next window takes the path metrics once, however
        many degradations came between, and smooths on.
        """
        for entry in flows:
            if link_id in entry.graph.links:
                entry.route = entry.settled = None

    def _restart_measurement(self, entry: DbEntry) -> None:
        """After a repair: the next window takes the new graph's figures raw.

        A repair made under the gate then seeds the route figures with the
        path metrics its prediction read.
        """
        entry.route = entry.smoothed = entry.settled = None

    def set_stall(self, flow_id: int, stall_ratio: float, entries: Mapping[int, DbEntry]) -> None:
        """Set a flow's stall level; it persists until the next injection.

        entries are the database entries by flow id. If the flow's entry is
        live, its held sample is dropped. A flow not yet admitted reads the
        level when first measured, and one that has ended is never measured
        again.
        """
        check_stall_ratio(stall_ratio)
        self.stall_levels[flow_id] = stall_ratio
        entry = entries.get(flow_id)
        if entry is not None and entry.is_live:
            entry.settled = None

    # -- self-healing -------------------------------------------------------------

    def handle_breach(self, entry: DbEntry) -> Action:
        """Escalating repair of a breaching flow: two plans, each under the MOS gate.

        First a reroute: new segments with placements fixed. If no such plan
        passes, a full re-embed that shuns the worst link of the current
        graph (highest loss, then highest latency). When neither fits, the
        flow is marked degraded but keeps running on what it has. The
        network and the flow's measurement are updated here, its graph and
        status by the orchestrator.
        """
        request, graph = entry.request, entry.graph
        segments = range(len(graph.segments))
        kind = ActionKind.REROUTED
        plan = self._replan(request, graph, (), segments)
        if isinstance(plan, Rejected):
            kind = ActionKind.MIGRATED
            chain = range(len(request.vnf_sequence))
            shunned = frozenset({self._worst_link(graph)})
            plan = self._replan(request, graph, chain, segments, shunned)
            if isinstance(plan, Rejected):
                return Action(ActionKind.MARKED_DEGRADED, request.id)
        self._commit(request, graph, plan.graph)
        self._restart_measurement(entry)
        entry.route = plan.route
        return Action(kind, request.id, plan.graph)

    def _worst_link(self, graph: ForwardingGraph) -> int:
        def badness(link_id: int):
            quality = self.network.quality[link_id]
            return (quality.loss_pct, quality.latency_ms, link_id)

        return max(graph.links, key=badness)

    def handle_host_failure(self, flows: Iterable[DbEntry]) -> list[Action]:
        """Repair every given flow whose graph touches a failed host.

        flows are the live database entries in ascending request id, and
        are handled in that order. Only what _failure_damage names is
        planned anew, and without the MOS gate: this is the one repair that
        takes any plan that fits. The rest of the graph stays. A repaired
        flow restarts its measurement and is answered with Migrated if it
        lost a placement, else Rerouted; one that cannot be repaired is
        fully released and answered with Failed. Either way, once this
        returns no live graph touches a failed host.
        """
        actions = []
        for entry in flows:
            request, graph = entry.request, entry.graph
            lost, segments = self._failure_damage(request, graph)
            if not segments:
                continue
            plan = self._replan(request, graph, lost, segments, gate=False)
            if isinstance(plan, Rejected):
                self.release_flow(entry)
                actions.append(Action(ActionKind.FAILED, request.id))
            else:
                self._commit(request, graph, plan.graph)
                self._restart_measurement(entry)
                kind = ActionKind.MIGRATED if lost else ActionKind.REROUTED
                actions.append(Action(kind, request.id, plan.graph))
        return actions

    # -- the reservation ledger ---------------------------------------------------

    def release_flow(self, entry: DbEntry) -> None:
        """Release everything a flow's graph holds."""
        self._commit(entry.request, entry.graph, None)

    def _commit(
        self, request: ChainRequest, old: ForwardingGraph | None, new: ForwardingGraph | None
    ) -> None:
        """Swap all that old holds for all that new holds on the ledger.

        One release, then one reserve. Either graph may be None: admission
        has nothing to give back, a flow that ends nothing to take. A failed
        host's holdings are released here like any other. The plan's view
        offered back the parts that change, and the parts it keeps are
        released before they are taken again, so a reserve that fails means
        planner and ledger disagree, which is fatal.
        """
        if old is not None:
            self.network.release(*self._holdings(request, old))
        if new is not None:
            try:
                self.network.reserve(*self._holdings(request, new))
            except SimulatorError as exc:
                msg = f"planned reservation no longer fits: {exc}"
                raise InvariantViolation(msg) from exc

    def _holdings(
        self, request: ChainRequest, graph: ForwardingGraph
    ) -> tuple[dict[int, int], dict[int, int], dict[int, int]]:
        """What graph holds, read in one pass over its links and one over its VNFs.

        Returns kbps per link, and CPU and memory per host summed over the
        VNFs placed there (the request's VNF names zipped with the graph's
        hosts), in the order reserve and release take them.
        """
        kbps = graph.reserved_bw_kbps
        usage: dict[int, int] = {}
        for segment in graph.segments:
            for link_id in segment:
                usage[link_id] = usage.get(link_id, 0) + kbps
        cpu: dict[int, int] = {}
        mem: dict[int, int] = {}
        vnf = self.catalog.vnf
        for name, host_id in zip(request.vnf_sequence, graph.hosts):
            demand = vnf(name)
            cpu[host_id] = cpu.get(host_id, 0) + demand.cpu_demand
            mem[host_id] = mem.get(host_id, 0) + demand.mem_demand
        return usage, cpu, mem
