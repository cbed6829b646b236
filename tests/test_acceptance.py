"""Acceptance battery: thirteen end-to-end guarantees, one verdict line each.

Every test prints exactly one PASS/FAIL line with its evidence before
asserting, so a `pytest -rP` run reads as a checklist: QoE model
properties, closed-form scores, resource conservation, embedding
validity, oracle containment, the admission gap of greedy rejections
against the oracle, routing optimality, the three scripted
fault-recovery scenarios, byte-level determinism, lifecycle soundness
and the per-flow summary replayed from the series.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import re
import time
from pathlib import Path
from random import Random

from qoechain import (
    ActionKind,
    AppProfile,
    Controller,
    Ela,
    NetworkState,
    Orchestrator,
    Rejected,
    estimate_mos,
    parse_scenario,
    run,
    validate_forwarding_graph,
    write_report,
)
from qoechain.controller import RejectReason
from qoechain.errors import InvariantViolation, SimulatorError
from qoechain.oracle import (
    enumerate_simple_paths,
    exact_embed,
    graph_latency,
    path_key,
)
from qoechain.qoe import FlowSample
from qoechain.routing import shortest_feasible_path
from qoechain.scenario import ScenarioDoc
from qoechain.service import ServiceCatalog

from generators import (
    fail_and_repair,
    random_catalog,
    random_network,
    random_doc,
    random_profile,
    random_request,
    random_sample,
    series_rows,
    written_dump,
    written_summary,
)

SCENARIOS = Path(__file__).parent.parent / "scenarios"
# How exact_embed refuses an instance above its limits.
ORACLE_REFUSAL = re.compile(r"exceeds oracle limit|more than \d+ simple paths")


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _load(name: str) -> ScenarioDoc:
    doc, diagnostics = parse_scenario((SCENARIOS / name).read_text())
    assert diagnostics == [], (name, diagnostics)
    return doc


def test_qoe_model_properties_hold_over_random_pairs():
    rng = Random(101)
    start = time.perf_counter()
    pairs = 10_000
    violations = 0
    for _ in range(pairs):
        profile = random_profile(rng)
        sample = random_sample(rng)
        scored = estimate_mos(sample, profile)
        factors = (scored.q_bw, scored.q_delay, scored.q_loss, scored.q_stall)

        ok = 1.0 <= scored.mos <= 5.0
        ok = ok and all(0.0 <= factor <= 1.0 for factor in factors)

        # Annihilation: one dead factor pins the score to the floor exactly.
        if ok and any(factor == 0.0 for factor in factors):
            ok = scored.mos == 1.0

        # Monotonicity: worsening any one coordinate never raises the score.
        if ok:
            worse_cases = (
                sample._replace(throughput_mbps=sample.throughput_mbps * rng.random()),
                sample._replace(delay_ms=sample.delay_ms + rng.uniform(0.0, 200.0)),
                sample._replace(jitter_ms=sample.jitter_ms + rng.uniform(0.0, 50.0)),
                sample._replace(
                    loss_pct=min(100.0, sample.loss_pct + rng.uniform(0.0, 20.0))
                ),
                sample._replace(
                    stall_ratio=min(1.0, sample.stall_ratio + rng.uniform(0.0, 0.5))
                ),
            )
            for worse in worse_cases:
                if estimate_mos(worse, profile).mos > scored.mos + 1e-9:
                    ok = False
                    break

        # Saturation: throughput beyond the requirement scores like exactly enough.
        if ok:
            at_req = sample._replace(throughput_mbps=profile.bw_req_mbps)
            above = sample._replace(
                throughput_mbps=profile.bw_req_mbps * rng.uniform(1.0, 4.0)
            )
            saturated = estimate_mos(above, profile)
            ok = saturated.q_bw == 1.0
            ok = ok and saturated.mos == estimate_mos(at_req, profile).mos

        if not ok:
            violations += 1
    elapsed = time.perf_counter() - start
    _verdict(
        "qoe-model-properties",
        violations == 0 and elapsed < 10.0,
        f"{pairs} random pairs, {violations} violations, {elapsed:.2f}s",
    )


def test_closed_form_scores_match_hand_derivation():
    profile = AppProfile("video", 4000, 50.0, 400.0, 5.0, 0.2)
    worked = estimate_mos(FlowSample(0, 4.0, 100.0, 25.0, 1.0, 0.05), profile)
    expected = 1.0 + 4.0 * (3.0 / 7.0)
    checks = [
        ("worked-example", abs(worked.mos - expected) <= 1e-9),
        (
            "perfect-is-five",
            estimate_mos(FlowSample(0, 4.0, 0.0, 0.0, 0.0, 0.0), profile).mos == 5.0,
        ),
        (
            "loss-at-max-is-one",
            estimate_mos(FlowSample(0, 4.0, 0.0, 0.0, 5.0, 0.0), profile).mos == 1.0,
        ),
        (
            "loss-beyond-max-is-one",
            estimate_mos(FlowSample(0, 4.0, 0.0, 0.0, 80.0, 0.0), profile).mos == 1.0,
        ),
    ]
    failed = [name for name, good in checks if not good]
    _verdict(
        "closed-form-scores",
        not failed,
        f"mos {worked.mos!r} vs expected {expected!r}; failed: {failed or 'none'}",
    )


def _raw_conservation_sequence(rng: Random) -> int:
    """Random reserve/release/fail/degrade ops vs an independent ledger."""
    net = random_network(
        rng,
        n_endpoints=2,
        n_hosts=rng.randint(1, 3),
        n_switches=rng.randint(0, 1),
        extra_links=rng.randint(0, 3),
    )
    hosts = sorted(net.residual_cpu)
    links = sorted(net.links)
    used_cpu = {host: 0 for host in hosts}
    used_mem = {host: 0 for host in hosts}
    used_bw = {link: 0 for link in links}
    # Each reserve that went through: (kbps per link, cpu per host, mem per host).
    groups: list[tuple[dict, dict, dict]] = []
    alive = set(hosts)
    mismatches = 0

    for _ in range(rng.randint(6, 12)):
        op = rng.choice(("reserve", "reserve", "release", "fail", "degrade"))
        if op == "reserve" and hosts:
            cpu_demands: dict[int, int] = {}
            mem_demands: dict[int, int] = {}
            for _ in range(rng.randint(0, 2)):
                host = rng.choice(hosts)
                cpu_demands[host] = cpu_demands.get(host, 0) + rng.randint(0, 3)
                mem_demands[host] = mem_demands.get(host, 0) + rng.randint(0, 3)
            link_demands: dict[int, int] = {}
            for _ in range(rng.randint(0, 2)):
                link = rng.choice(links)
                link_demands[link] = link_demands.get(link, 0) + rng.randint(0, 8) * 500
            try:
                net.reserve(link_demands, cpu_demands, mem_demands)
            except SimulatorError as exc:
                assert re.fullmatch(r"insufficient \w+ on \d+|host \d+ has failed", str(exc)), exc
            else:
                for host, cpu in cpu_demands.items():
                    used_cpu[host] += cpu
                for host, mem in mem_demands.items():
                    used_mem[host] += mem
                for link, kbps in link_demands.items():
                    used_bw[link] += kbps
                groups.append((link_demands, cpu_demands, mem_demands))
        elif op == "release" and groups:
            link_demands, cpu_demands, mem_demands = groups.pop(rng.randrange(len(groups)))
            net.release(link_demands, cpu_demands, mem_demands)
            for host, cpu in cpu_demands.items():
                used_cpu[host] -= cpu
            for host, mem in mem_demands.items():
                used_mem[host] -= mem
            for link, kbps in link_demands.items():
                used_bw[link] -= kbps
        elif op == "fail" and alive:
            host = rng.choice(sorted(alive))
            alive.discard(host)
            # The host's holdings stay reserved until released, so the
            # shadow is left as it is.
            net.fail_host(host)
        elif op == "degrade" and links:
            net.degrade_link(rng.choice(links), latency_ms=rng.uniform(0.0, 500.0))

        for host in hosts:
            node = net.nodes[host]
            if node.cpu_capacity - net.residual_cpu[host] != used_cpu[host]:
                mismatches += 1
            if node.mem_capacity - net.residual_mem[host] != used_mem[host]:
                mismatches += 1
        for link in links:
            if net.links[link].bandwidth_kbps - net.residual_bw[link] != used_bw[link]:
                mismatches += 1
    return mismatches


def _controller_ledger_mismatches(net, orchestrator, catalog) -> int:
    expected_cpu: dict[int, int] = {}
    expected_mem: dict[int, int] = {}
    expected_bw: dict[int, int] = {}
    for entry in orchestrator.db.live():
        for name, host in zip(entry.request.vnf_sequence, entry.graph.hosts):
            vnf = catalog.vnf(name)
            expected_cpu[host] = expected_cpu.get(host, 0) + vnf.cpu_demand
            expected_mem[host] = expected_mem.get(host, 0) + vnf.mem_demand
        for segment in entry.graph.segments:
            for link in segment:
                expected_bw[link] = expected_bw.get(link, 0) + entry.graph.reserved_bw_kbps
    bad = 0
    for host in net.residual_cpu:
        node = net.nodes[host]
        if node.cpu_capacity - net.residual_cpu[host] != expected_cpu.get(host, 0):
            bad += 1
        if node.mem_capacity - net.residual_mem[host] != expected_mem.get(host, 0):
            bad += 1
    for link_id, link in net.links.items():
        if link.bandwidth_kbps - net.residual_bw[link_id] != expected_bw.get(link_id, 0):
            bad += 1
    return bad


def _controller_conservation_sequence(rng: Random) -> int:
    """Admit/complete/fail ops through the controller vs a recomputed ledger."""
    net = random_network(
        rng,
        n_endpoints=2,
        n_hosts=rng.randint(2, 3),
        n_switches=rng.randint(0, 1),
        extra_links=rng.randint(1, 3),
    )
    catalog = random_catalog(rng)
    orchestrator = Orchestrator(Controller(net, catalog, Ela(1.0, 2, 0.9)))
    alive = set(net.residual_cpu)
    next_id = 0
    mismatches = 0
    for _ in range(rng.randint(5, 10)):
        op = rng.choice(("admit", "admit", "complete", "fail"))
        live_ids = [entry.request.id for entry in orchestrator.db.live()]
        if op == "admit":
            request = random_request(rng, next_id, net, catalog, target=1.0)
            orchestrator.submit_request(request, now=0)
            next_id += 1
        elif op == "complete" and live_ids:
            orchestrator.complete_request(rng.choice(live_ids), now=0)
        elif op == "fail" and alive:
            host = rng.choice(sorted(alive))
            alive.discard(host)
            fail_and_repair(orchestrator, host)
        mismatches += _controller_ledger_mismatches(net, orchestrator, catalog)
    return mismatches


def test_resource_ledgers_stay_conserved():
    rng = Random(303)
    sequences = 1000
    mismatches = 0
    for index in range(sequences):
        if index % 2 == 0:
            mismatches += _raw_conservation_sequence(rng)
        else:
            mismatches += _controller_conservation_sequence(rng)
    _verdict(
        "resource-conservation",
        mismatches == 0,
        f"{sequences} operation sequences, {mismatches} ledger mismatches",
    )


def test_every_emitted_embedding_is_valid():
    rng = Random(404)
    graphs = 0
    invalid = 0
    repaired = {ActionKind.MIGRATED: 0, ActionKind.REROUTED: 0}
    while graphs < 1000:
        net = random_network(
            rng,
            n_endpoints=rng.randint(2, 3),
            n_hosts=rng.randint(1, 4),
            n_switches=rng.randint(0, 2),
            extra_links=rng.randint(0, 4),
        )
        catalog = random_catalog(rng)
        orchestrator = Orchestrator(Controller(net, catalog, Ela(1.0, 2, 0.9)))
        for rid in range(rng.randint(1, 5)):
            request = random_request(rng, rid, net, catalog, target=1.0)
            result = orchestrator.submit_request(request, now=0)
            if isinstance(result, Rejected):
                continue
            graphs += 1
            if validate_forwarding_graph(result, request, net):
                invalid += 1
        hosts = sorted(h for h in net.residual_cpu if h not in net.failed_hosts)
        if hosts and rng.random() < 0.4:
            host = rng.choice(hosts)
            for action in fail_and_repair(orchestrator, host):
                if action.new_graph is not None:
                    entry = orchestrator.db.entries[action.flow_id]
                    graphs += 1
                    repaired[action.kind] += 1
                    if validate_forwarding_graph(entry.graph, entry.request, net):
                        invalid += 1
    _verdict(
        "embedding-validity",
        invalid == 0 and repaired[ActionKind.REROUTED] > 0,
        f"{graphs} forwarding graphs validated "
        f"({repaired[ActionKind.MIGRATED]} migrated, "
        f"{repaired[ActionKind.REROUTED]} rerouted after a host failure), "
        f"{invalid} invalid",
    )


def test_oracle_contains_greedy_and_measures_the_gap():
    rng = Random(505)
    start = time.perf_counter()
    instances = 0
    admitted = 0
    containment_failures = 0
    optimality_failures = 0
    gaps = []
    while instances < 200:
        net = random_network(
            rng,
            n_endpoints=2,
            n_hosts=rng.randint(1, 4),
            n_switches=rng.randint(0, 1),
            extra_links=rng.randint(0, 3),
        )
        catalog = random_catalog(rng)
        controller = Controller(net, catalog, Ela(1.0, 2, 0.9))
        request = random_request(rng, 0, net, catalog, target=1.0, max_chain=3)
        try:
            exact = exact_embed(net, catalog, request)
        except SimulatorError as exc:
            assert ORACLE_REFUSAL.search(str(exc)), exc
            continue
        instances += 1
        plan = controller.admit(request)
        if isinstance(plan, Rejected):
            continue
        greedy = plan.graph
        admitted += 1
        if exact is None:
            containment_failures += 1
            continue
        greedy_latency = graph_latency(net, catalog, greedy, request)
        exact_latency = graph_latency(net, catalog, exact, request)
        if exact_latency > greedy_latency + 1e-9:
            optimality_failures += 1
        gaps.append(greedy_latency - exact_latency)
    elapsed = time.perf_counter() - start

    doc = _load("greedy_gap.json")
    net = NetworkState(doc.nodes, doc.links)
    catalog = ServiceCatalog(doc.vnf_types, doc.profiles)
    controller = Controller(net, catalog, doc.ela, doc.policy)
    request = doc.requests[0]
    exact = exact_embed(net, catalog, request)
    greedy = controller.admit(request).graph
    constructed_gap = graph_latency(net, catalog, greedy, request) - graph_latency(
        net, catalog, exact, request
    )

    mean_gap = sum(gaps) / len(gaps) if gaps else 0.0
    max_gap = max(gaps, default=0.0)
    ok = (
        containment_failures == 0
        and optimality_failures == 0
        and admitted >= 100
        and constructed_gap > 0.0
        and elapsed < 60.0
    )
    _verdict(
        "oracle-containment-and-gap",
        ok,
        f"{instances} instances ({admitted} admitted), "
        f"containment failures {containment_failures}, optimality failures "
        f"{optimality_failures}, gap mean {mean_gap:.3f} max {max_gap:.3f} ms, "
        f"constructed gap {constructed_gap:.1f} ms, {elapsed:.1f}s",
    )


def test_admission_gap_of_greedy_rejections():
    # How often greedy admission turns away a request the exhaustive oracle
    # can embed, by rejection reason. Only containment is a guarantee; the
    # gap figures are measured, not bounded.
    rng = Random(707)
    instances = 0
    admitted = 0
    containment_failures = 0
    rejected = {"qoe": 0, "host_or_path": 0}
    embeddable = {"qoe": 0, "host_or_path": 0}
    for _ in range(300):
        net = random_network(
            rng,
            n_endpoints=2,
            n_hosts=rng.randint(1, 6),
            n_switches=rng.randint(0, 1),
            extra_links=rng.randint(0, 3),
        )
        catalog = random_catalog(rng)
        request = random_request(rng, 0, net, catalog, max_chain=3)
        try:
            exact = exact_embed(net, catalog, request)
        except SimulatorError as exc:
            assert ORACLE_REFUSAL.search(str(exc)), exc
            continue
        instances += 1
        greedy = Controller(net, catalog, Ela(1.0, 2, 0.9)).admit(request)
        if not isinstance(greedy, Rejected):
            admitted += 1
            containment_failures += exact is None
            continue
        kind = "qoe" if greedy.reason is RejectReason.QOE_BELOW_TARGET else "host_or_path"
        rejected[kind] += 1
        embeddable[kind] += exact is not None
    _verdict(
        "admission-gap",
        containment_failures == 0 and instances >= 200,
        f"{instances} of 300 draws within the oracle's limits ({admitted} admitted), "
        f"containment failures "
        f"{containment_failures}; the oracle embeds {embeddable['qoe']} of "
        f"{rejected['qoe']} QoeBelowTarget and {embeddable['host_or_path']} of "
        f"{rejected['host_or_path']} NoHost/NoPath rejections",
    )


def test_shortest_path_matches_exhaustive_enumeration():
    rng = Random(606)
    compared = 0
    mismatches = 0
    while compared < 200:
        net = random_network(
            rng, n_endpoints=2, n_hosts=2, n_switches=1, extra_links=rng.randint(1, 4)
        )
        if rng.random() < 0.5:
            net.degrade_link(
                rng.choice(sorted(net.links)), latency_ms=rng.uniform(1.0, 50.0)
            )
        bw_need = rng.randint(1, 9) * 1000
        src, dst = rng.sample(sorted(net.nodes), 2)
        best = shortest_feasible_path(net, src, dst, bw_need)
        paths = enumerate_simple_paths(net, src, dst, bw_need)
        compared += 1
        if best is None:
            if paths:
                mismatches += 1
        elif not paths:
            mismatches += 1
        elif path_key(net, best) != min(path_key(net, path) for path in paths):
            mismatches += 1
    _verdict(
        "routing-oracle",
        mismatches == 0,
        f"{compared} five-node graphs with bandwidth filtering, {mismatches} mismatches",
    )


def test_host_failure_triggers_immediate_migration(tmp_path):
    doc = _load("host_failure_migration.json")
    stale_refs = []

    def hook(event, state):
        # From the failure on, failed host 1 holds nothing.
        host = state.nodes[1]
        held = (state.residual_cpu[1], state.residual_mem[1])
        if event.time_ms >= 2500 and held != (host.cpu_capacity, host.mem_capacity):
            stale_refs.append((type(event).__name__, event.time_ms))

    report = run(doc, strict_debug=True, event_hook=hook)
    lifecycle = [
        (step["time_ms"], step["from"], step["to"], step.get("kind"))
        for step in written_dump(report, tmp_path)[0]["lifecycle"]
    ]
    migration_steps = [step for step in lifecycle if step[0] == 2500]
    compliance = written_summary(report, tmp_path)["flows"]["0"]["compliance"]
    rows = list(series_rows(report))
    recovery_row = next(
        row for window, row in rows if (window + 1) * doc.window_ms == 3000
    )
    ok = (
        report.counters["migrated"] == 1
        and migration_steps == [(2500, "Active", "Active", "Migrated")]
        and not stale_refs
        and recovery_row.mos >= doc.ela.target_mos
        and len(rows) == 5
        and all(abs(row.mos - 5.0) <= 1e-9 for _, row in rows)
        and compliance == 1.0
    )
    _verdict(
        "failure-migration-scenario",
        ok,
        f"migrated={report.counters['migrated']}, stale placement refs "
        f"{len(stale_refs)}, window-after-failure mos {recovery_row.mos:.3f}, "
        f"compliance {compliance}",
    )


def test_host_failure_reroutes_flows_relayed_through_the_host(tmp_path):
    # Flow 0 places fw on host 1; flow 1 places nothing but forwards through
    # host 1. Both must leave it when it fails; strict audits flag any live
    # segment that still relays through a failed host.
    doc = _load("relay_failure.json")
    profile = doc.profiles[0]
    try:
        report = run(doc, strict_debug=True)
    except InvariantViolation as exc:
        _verdict("relay-failure-scenario", False, f"audit tripped: {exc}")
    dump = {entry["request_id"]: entry for entry in written_dump(report, tmp_path)}
    flows = written_summary(report, tmp_path)["flows"]
    steps = {
        request_id: [
            (step["time_ms"], step["from"], step["to"], step.get("kind"))
            for step in entry["lifecycle"]
            if step["time_ms"] == 2500
        ]
        for request_id, entry in dump.items()
    }
    # The refuge is links 1 and 3 (15 ms each), measured raw after the move.
    span = profile.delay_max_ms - profile.delay_opt_ms
    refuge_mos = 1.0 + 4.0 * (profile.delay_max_ms - 30.0) / span
    relayed_rows = [
        row.mos for window, row in series_rows(report) if row.flow_id == 1 and window >= 2
    ]
    ok = (
        report.counters["migrated"] == 1
        and report.counters["rerouted"] == 1
        and steps[0] == [(2500, "Active", "Active", "Migrated")]
        and steps[1] == [(2500, "Active", "Active", "Rerouted")]
        and dump[0]["forwarding_graph"]["placements"] == [{"vnf": "fw", "host": 2}]
        and dump[1]["forwarding_graph"]["segments"] == [[1, 3]]
        and len(relayed_rows) == 3
        and all(abs(mos - refuge_mos) <= 1e-9 for mos in relayed_rows)
        and all(flow["compliance"] == 1.0 for flow in flows.values())
    )
    _verdict(
        "relay-failure-scenario",
        ok,
        f"migrated={report.counters['migrated']}, rerouted={report.counters['rerouted']}, "
        f"relayed flow segments {dump[1]['forwarding_graph']['segments']}, "
        f"mos after failure {relayed_rows}",
    )


def test_breach_feedback_reroutes_at_the_replayed_window(tmp_path):
    doc = _load("feedback_reroute.json")
    profile = doc.profiles[0]
    alpha = doc.policy.predictor_alpha
    target = doc.ela.target_mos
    need = doc.ela.breach_windows

    # Independent replay of the smoothing and the K-consecutive breach rule.
    expected_mos = []
    breach_at = None
    smoothed = None
    consecutive = 0
    on_backup = False
    for index in range(10):
        time_ms = (index + 1) * 1000
        raw = 12.0 if on_backup else (300.0 if time_ms > 2500 else 10.0)
        smoothed = raw if smoothed is None else alpha * raw + (1 - alpha) * smoothed
        if smoothed <= profile.delay_opt_ms:
            q_delay = 1.0
        else:
            span = profile.delay_max_ms - profile.delay_opt_ms
            q_delay = max(0.0, min(1.0, (profile.delay_max_ms - smoothed) / span))
        mos = 1.0 + 4.0 * q_delay
        expected_mos.append(mos)
        consecutive = consecutive + 1 if mos < target else 0
        if not on_backup and consecutive >= need:
            breach_at = index
            on_backup = True
            smoothed = None  # the reroute resets the smoother

    report = run(doc, strict_debug=True)
    actual = [row.mos for _, row in series_rows(report)]
    worst_error = max(
        (abs(a - e) for a, e in zip(actual, expected_mos)), default=float("inf")
    )
    flow = written_summary(report, tmp_path)["flows"]["0"]
    replayed_compliance = sum(1 for m in expected_mos if m >= target) / len(expected_mos)
    ok = (
        len(actual) == 10
        and worst_error <= 1e-9
        and breach_at == 4
        and flow["breach_windows"] == [breach_at]
        and report.counters["rerouted"] == 1
        and abs(actual[breach_at + 1] - 5.0) <= 1e-9
        and flow["compliance"] == replayed_compliance == 0.8
    )
    _verdict(
        "feedback-reroute-scenario",
        ok,
        f"replayed breach window {breach_at}, reported {flow['breach_windows']}, "
        f"trace error {worst_error:.2e}, rerouted={report.counters['rerouted']}, "
        f"compliance {flow['compliance']}",
    )


def test_reruns_produce_byte_identical_artifacts(tmp_path):
    names = sorted(SCENARIOS.glob("*.json"))
    mismatched = []
    for path in names:
        doc = _load(path.name)
        for tag in ("a", "b"):
            write_report(run(doc), tmp_path / f"{path.stem}_{tag}")
        for artifact in ("summary.json", "qoe_series.csv", "db_dump.json"):
            first = (tmp_path / f"{path.stem}_a" / artifact).read_bytes()
            second = (tmp_path / f"{path.stem}_b" / artifact).read_bytes()
            if first != second:
                mismatched.append(f"{path.stem}/{artifact}")
    _verdict(
        "byte-determinism",
        not mismatched,
        f"{len(names)} scenarios x 3 artifacts byte-compared, "
        f"mismatches: {mismatched or 'none'}",
    )


_LEGAL = {
    "Requested": {"Active"},
    "Active": {"Active", "Degraded", "Completed", "Failed"},
    "Degraded": {"Active", "Failed", "Completed"},
    "Failed": set(),
    "Completed": set(),
}


def _replay_dump(dump_text: str) -> list[str]:
    """Re-audit a serialized database dump with a local transition table.

    A record into Active from Active or Degraded is a repair and must name
    its kind, Rerouted or Migrated; no other record names one.
    """
    problems = []
    for entry in json.loads(dump_text):
        label = f"request {entry['request_id']}"
        status = "Requested"
        last_time = None
        for step in entry["lifecycle"]:
            if step["from"] != status:
                problems.append(f"{label}: jump {status} -> {step['from']}")
            if step["to"] not in _LEGAL[step["from"]]:
                problems.append(f"{label}: illegal {step['from']} -> {step['to']}")
            repair = step["from"] != "Requested" and step["to"] == "Active"
            if step.get("kind") not in ({"Rerouted", "Migrated"} if repair else {None}):
                problems.append(f"{label}: {step['from']} -> {step['to']} names {step.get('kind')}")
            if last_time is not None and step["time_ms"] < last_time:
                problems.append(f"{label}: time went backwards")
            status = step["to"]
            last_time = step["time_ms"]
        if status != entry["status"]:
            problems.append(f"{label}: ends {status} but recorded {entry['status']}")
    return problems


def test_lifecycle_logs_replay_the_automaton(tmp_path):
    rng = Random(1010)
    reports = [run(_load(path.name)) for path in sorted(SCENARIOS.glob("*.json"))]
    reports += [run(random_doc(rng, index), strict_debug=True) for index in range(25)]
    runs = 0
    entries = 0
    problems: list[str] = []
    for index, report in enumerate(reports):
        write_report(report, tmp_path / f"run{index}")
        problems += _replay_dump((tmp_path / f"run{index}" / "db_dump.json").read_text())
        runs += 1
        entries += len(report.entries)
    _verdict(
        "lifecycle-soundness",
        not problems,
        f"{runs} runs, {entries} lifecycle logs replayed, {len(problems)} violations",
    )


def _replay_flow(rows: list[tuple[int, float]], target: float, need: int) -> dict:
    """A flow's summary figures from its (window index, mos) rows alone."""
    below = 0
    breaches = []
    for window_index, mos in rows:
        below = below + 1 if mos < target else 0
        if below >= need:
            breaches.append(window_index)
    met = sum(1 for _, mos in rows if mos >= target)
    return {
        "windows_observed": len(rows),
        "compliance": met / len(rows) if rows else None,
        "breach_windows": breaches,
    }


def test_flow_summaries_replay_from_the_series(tmp_path):
    rng = Random(2020)
    docs = [_load(path.name) for path in sorted(SCENARIOS.glob("*.json"))]
    # The same scenarios with every target at 5.0: a perfect window is then
    # exactly at target, which counts as met, and any other window is below.
    docs += [
        dataclasses.replace(
            doc,
            requests=tuple(
                dataclasses.replace(request, ela_target=5.0) for request in doc.requests
            ),
        )
        for doc in docs
    ]
    docs += [random_doc(rng, index) for index in range(60)]
    flows = 0
    breaches = 0
    problems: list[str] = []
    for index, doc in enumerate(docs):
        out = tmp_path / f"run{index}"
        write_report(run(doc), out)
        summary = json.loads((out / "summary.json").read_text())
        with open(out / "qoe_series.csv", newline="") as handle:
            series = list(csv.DictReader(handle))
        targets = {request.id: request.ela_target for request in doc.requests}
        for flow_id, reported in summary["flows"].items():
            rows = [
                (int(row["time_ms"]) // doc.window_ms - 1, float(row["mos"]))
                for row in series
                if row["flow_id"] == flow_id
            ]
            replayed = _replay_flow(rows, targets[int(flow_id)], doc.ela.breach_windows)
            got = {key: reported[key] for key in replayed}
            if got != replayed:
                problems.append(f"{doc.name} flow {flow_id}: {got} != {replayed}")
            flows += 1
            breaches += len(replayed["breach_windows"])
    _verdict(
        "summary-replay",
        not problems and flows > 0 and breaches > 0,
        f"{len(docs)} runs, {flows} flows replayed from the series "
        f"({breaches} breach windows), mismatches: {problems or 'none'}",
    )
