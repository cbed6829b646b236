"""Lifecycle automaton, the VNFs database, and orchestration flows."""

from __future__ import annotations

import json
from pathlib import Path
from random import Random

import pytest

from qoechain import (
    Action,
    ActionKind,
    Controller,
    Ela,
    LifecycleStatus,
    Orchestrator,
    Rejected,
    VnfDb,
    audit_lifecycle,
    parse_scenario,
    run,
    write_report,
)
from qoechain.errors import InvariantViolation, SimulatorError
from qoechain.orchestrator import LEGAL_TRANSITIONS, REPAIRS, TERMINAL, DbEntry
from qoechain.report import SimReport
from qoechain.service import ForwardingGraph

from generators import (
    SCENARIOS,
    bench_module,
    line_network,
    make_request,
    random_doc,
    small_catalog,
    written_dump,
)

ELA = Ela(3.0, 2, 0.9)


def _orchestrator() -> Orchestrator:
    return Orchestrator(Controller(line_network(), small_catalog(), ELA))


def _entry(log) -> DbEntry:
    graph = ForwardingGraph((1,), ((0,), (1,)), 4000)
    return DbEntry(request=make_request(), graph=graph, log=log)


def test_automaton_covers_every_status_and_terminals_are_sinks():
    assert set(LEGAL_TRANSITIONS) == set(LifecycleStatus)
    assert TERMINAL == {LifecycleStatus.FAILED, LifecycleStatus.COMPLETED}
    for status in TERMINAL:
        assert LEGAL_TRANSITIONS[status] == frozenset()
    assert LifecycleStatus.DEGRADED in LEGAL_TRANSITIONS[LifecycleStatus.ACTIVE]
    assert LEGAL_TRANSITIONS[LifecycleStatus.REQUESTED] == {LifecycleStatus.ACTIVE}
    # A repair enters Active from Active or Degraded.
    for status in (LifecycleStatus.ACTIVE, LifecycleStatus.DEGRADED):
        assert LifecycleStatus.ACTIVE in LEGAL_TRANSITIONS[status]


def test_transition_rejects_illegal_edge_without_side_effects():
    db = VnfDb()
    entry = _entry([])
    illegal = "request 0: illegal transition Requested -> Degraded"
    with pytest.raises(InvariantViolation, match=illegal):
        db.transition(entry, LifecycleStatus.DEGRADED, now=0)
    assert entry.status is LifecycleStatus.REQUESTED
    assert entry.log == []


@pytest.mark.parametrize("kind", [None, ActionKind.MARKED_DEGRADED, ActionKind.FAILED])
@pytest.mark.parametrize("status", [LifecycleStatus.ACTIVE, LifecycleStatus.DEGRADED])
def test_transition_refuses_a_repair_that_names_no_repair_kind(status, kind):
    # A record into Active from Active or Degraded is a repair: it must name
    # Rerouted or Migrated, in the words audit_lifecycle uses.
    db = VnfDb()
    log = [(0, LifecycleStatus.ACTIVE, None), (1, LifecycleStatus.DEGRADED, None)]
    entry = _entry(log[: 1 + (status is LifecycleStatus.DEGRADED)])
    db.add(entry)
    before, live = list(entry.log), db.live()
    refused = f"request 0 at 2ms: repair {status.value} -> Active names no repair kind"
    with pytest.raises(InvariantViolation) as exc:
        db.transition(entry, LifecycleStatus.ACTIVE, now=2, kind=kind)
    assert str(exc.value) == refused
    assert entry.log == before and db.live() is live


@pytest.mark.parametrize(
    ("log", "to"),
    [
        ([], LifecycleStatus.ACTIVE),
        ([(0, LifecycleStatus.ACTIVE, None)], LifecycleStatus.DEGRADED),
        ([(0, LifecycleStatus.ACTIVE, None)], LifecycleStatus.COMPLETED),
        ([(0, LifecycleStatus.ACTIVE, None)], LifecycleStatus.FAILED),
    ],
    ids=["admission", "degraded", "completed", "failed"],
)
@pytest.mark.parametrize("kind", sorted(REPAIRS))
def test_transition_refuses_a_kind_on_a_record_that_is_no_repair(log, to, kind):
    # Admission, marking degraded and ending a flow are no repair: their
    # records name no kind, in the words audit_lifecycle uses.
    db = VnfDb()
    entry = _entry(list(log))
    db.add(entry)
    status = entry.status
    before, live = list(entry.log), db.live()
    refused = f"request 0 at 2ms: {status.value} -> {to.value} names repair kind {kind.value}"
    with pytest.raises(InvariantViolation) as exc:
        db.transition(entry, to, now=2, kind=kind)
    assert str(exc.value) == refused
    assert entry.log == before and db.live() is live


def test_transition_rejects_time_regression_but_allows_same_instant():
    db = VnfDb()
    entry = _entry([])
    db.transition(entry, LifecycleStatus.ACTIVE, now=100)
    with pytest.raises(InvariantViolation, match="request 0: lifecycle log time went backwards"):
        db.transition(entry, LifecycleStatus.DEGRADED, now=99)
    db.transition(entry, LifecycleStatus.DEGRADED, now=100)
    assert entry.log == [(100, LifecycleStatus.ACTIVE, None), (100, LifecycleStatus.DEGRADED, None)]


def test_submit_activates_and_logs():
    orch = _orchestrator()
    graph = orch.submit_request(make_request(), now=250)
    assert not isinstance(graph, Rejected)
    entry = orch.db.entries[0]
    assert entry.status is LifecycleStatus.ACTIVE
    assert entry.log == [(250, LifecycleStatus.ACTIVE, None)]
    assert entry.graph is graph


def test_submit_rejects_duplicate_ids():
    orch = _orchestrator()
    orch.submit_request(make_request(), now=0)
    with pytest.raises(SimulatorError, match="request 0 already submitted"):
        orch.submit_request(make_request(), now=1)


def test_rejected_request_leaves_no_database_entry():
    orch = _orchestrator()
    result = orch.submit_request(make_request(vnfs=("fw",) * 5), now=0)
    assert isinstance(result, Rejected)
    assert orch.db.entries == {}


def test_complete_releases_resources_and_finishes():
    orch = _orchestrator()
    orch.submit_request(make_request(), now=0)
    orch.complete_request(0, now=10_000)
    entry = orch.db.entries[0]
    assert entry.status is LifecycleStatus.COMPLETED
    assert entry.log == [
        (0, LifecycleStatus.ACTIVE, None),
        (10_000, LifecycleStatus.COMPLETED, None),
    ]
    assert orch.db.live() == []


def test_complete_unknown_or_finished_request_raises():
    orch = _orchestrator()
    with pytest.raises(SimulatorError, match="unknown request 42"):
        orch.complete_request(42, now=0)
    orch.submit_request(make_request(), now=0)
    orch.complete_request(0, now=5)
    with pytest.raises(SimulatorError, match="request 0 is already Completed"):
        orch.complete_request(0, now=6)


def test_reroute_action_is_one_record_that_names_its_kind():
    orch = _orchestrator()
    graph = orch.submit_request(make_request(), now=0)
    new_graph = ForwardingGraph(graph.hosts, graph.segments, graph.reserved_bw_kbps)
    entry = orch.apply_action(
        Action(ActionKind.REROUTED, flow_id=0, new_graph=new_graph), now=3000
    )
    assert entry.status is LifecycleStatus.ACTIVE
    assert entry.graph is new_graph
    assert entry.log[1:] == [(3000, LifecycleStatus.ACTIVE, ActionKind.REROUTED)]


def test_marking_degraded_twice_is_a_no_op():
    orch = _orchestrator()
    orch.submit_request(make_request(), now=0)
    action = Action(ActionKind.MARKED_DEGRADED, flow_id=0)
    entry = orch.apply_action(action, now=1000)
    assert entry.status is LifecycleStatus.DEGRADED
    before = list(entry.log)
    orch.apply_action(action, now=2000)
    assert entry.status is LifecycleStatus.DEGRADED
    assert entry.log == before


def test_failed_action_is_terminal():
    orch = _orchestrator()
    orch.submit_request(make_request(), now=0)
    entry = orch.apply_action(Action(ActionKind.FAILED, flow_id=0), now=500)
    assert entry.status is LifecycleStatus.FAILED
    with pytest.raises(SimulatorError, match="request 0 is already Failed"):
        orch.complete_request(0, now=600)


def test_action_for_unknown_flow_raises():
    orch = _orchestrator()
    with pytest.raises(SimulatorError, match="action for unknown request 9"):
        orch.apply_action(Action(ActionKind.FAILED, flow_id=9), now=0)


def _scanned_live(db: VnfDb) -> list[DbEntry]:
    """The live entries read off a scan of every entry, as before the index."""
    return [db.entries[rid] for rid in sorted(db.entries) if db.entries[rid].is_live]


def test_live_index_matches_a_full_scan_over_random_lifecycles():
    # Requests arrive out of id order, as a file's arrival times may admit
    # them, and every legal move is taken at random: degrade, migrate,
    # complete, fail.
    rng = Random(1616)
    moves = 0
    for _ in range(60):
        db = VnfDb()
        arrivals = list(range(rng.randint(1, 15)))
        rng.shuffle(arrivals)
        now = 0
        while arrivals or db.live():
            now += rng.randint(0, 2)
            live = db.live()
            if arrivals and (not live or rng.random() < 0.4):
                graph = ForwardingGraph((1,), ((0,), (1,)), 4000)
                request = make_request(rid=arrivals.pop())
                entry = DbEntry(request, graph)
                db.add(entry)
                db.transition(entry, LifecycleStatus.ACTIVE, now)
            else:
                entry = rng.choice(live)
                to = rng.choice(sorted(LEGAL_TRANSITIONS[entry.status]))
                # Every live entry here is past Requested: a move into Active is a repair.
                kind = rng.choice(sorted(REPAIRS)) if to is LifecycleStatus.ACTIVE else None
                db.transition(entry, to, now, kind)
                moves += 1
            assert db.live() == _scanned_live(db)
        assert db.live() == []
    assert moves > 500


def test_a_live_list_handed_out_is_never_changed():
    # live() hands out one list until membership changes, and a change
    # builds a new list: one that a caller still holds stays as it was.
    db = VnfDb()
    graph = ForwardingGraph((1,), ((0,), (1,)), 4000)
    entries = {}
    for rid in (2, 0, 1):
        entries[rid] = DbEntry(make_request(rid=rid), graph)
        db.add(entries[rid])
        db.transition(entries[rid], LifecycleStatus.ACTIVE, 0)
    held = db.live()
    assert db.live() is held
    db.transition(entries[1], LifecycleStatus.DEGRADED, 100)  # still live
    assert db.live() is held
    snapshots = [(held, list(held))]
    late = DbEntry(make_request(rid=3), graph)
    db.add(late)
    db.transition(late, LifecycleStatus.ACTIVE, 200)
    snapshots.append((db.live(), list(db.live())))
    db.transition(entries[0], LifecycleStatus.COMPLETED, 300)
    snapshots.append((db.live(), list(db.live())))
    db.transition(entries[1], LifecycleStatus.FAILED, 400)
    for handed_out, as_handed in snapshots:
        assert handed_out == as_handed
    assert [[entry.request.id for entry in live] for live, _ in snapshots] == [
        [0, 1, 2],
        [0, 1, 2, 3],
        [1, 2, 3],
    ]
    assert db.live() == _scanned_live(db) == [entries[2], late]


def test_live_index_matches_a_full_scan_in_random_runs(monkeypatch, tmp_path):
    # Whole runs: admissions, departures, breach repairs and host-failure
    # migrations, with arrivals drawn out of id order.
    indexed = VnfDb.live
    sizes = []

    def live(db: VnfDb) -> list[DbEntry]:
        entries = indexed(db)
        assert entries == _scanned_live(db)
        sizes.append(len(entries))
        return entries

    monkeypatch.setattr(VnfDb, "live", live)
    rng = Random(1617)
    moved = ended = failed = out_of_order = 0
    for index in range(400):
        report = run(random_doc(rng, index), strict_debug=True)
        counters = report.counters
        moved += counters["rerouted"] + counters["migrated"]
        ended += counters["completed"]
        failed += counters["failed"]
        dump = written_dump(report, tmp_path / f"run{index}")
        admitted = sorted(dump, key=lambda item: item["lifecycle"][0]["time_ms"])
        ids = [item["request_id"] for item in admitted]
        out_of_order += ids != sorted(ids)
    assert min(moved, ended, failed, out_of_order) > 0
    assert sum(sizes) > 1000


def test_audit_passes_on_a_clean_history():
    orch = _orchestrator()
    graph = orch.submit_request(make_request(), now=0)
    orch.apply_action(Action(ActionKind.MARKED_DEGRADED, flow_id=0), now=1000)
    new_graph = ForwardingGraph(graph.hosts, graph.segments, graph.reserved_bw_kbps)
    orch.apply_action(
        Action(ActionKind.REROUTED, flow_id=0, new_graph=new_graph), now=2000
    )
    orch.complete_request(0, now=3000)
    assert audit_lifecycle(orch.db) == []


def test_audit_flags_log_that_starts_past_requested():
    # The log is replayed from Requested, which has no edge to Degraded.
    db = VnfDb()
    db.add(_entry([(0, LifecycleStatus.DEGRADED, None)]))
    assert audit_lifecycle(db) == ["request 0 at 0ms: illegal Requested -> Degraded"]


def test_audit_flags_illegal_edge():
    db = VnfDb()
    db.add(
        _entry(
            [
                (0, LifecycleStatus.ACTIVE, None),
                (1, LifecycleStatus.DEGRADED, None),
                (2, LifecycleStatus.DEGRADED, None),
            ]
        )
    )
    assert audit_lifecycle(db) == ["request 0 at 2ms: illegal Degraded -> Degraded"]


def test_audit_flags_a_kind_on_a_record_that_is_no_repair():
    # Admission enters Active from Requested: no repair, so no kind.
    db = VnfDb()
    db.add(
        _entry(
            [
                (0, LifecycleStatus.ACTIVE, ActionKind.REROUTED),
                (1, LifecycleStatus.DEGRADED, ActionKind.MIGRATED),
            ]
        )
    )
    assert audit_lifecycle(db) == [
        "request 0 at 0ms: Requested -> Active names repair kind Rerouted",
        "request 0 at 1ms: Active -> Degraded names repair kind Migrated",
    ]


def test_audit_flags_a_repair_that_names_no_repair_kind():
    db = VnfDb()
    db.add(
        _entry(
            [
                (0, LifecycleStatus.ACTIVE, None),
                (1, LifecycleStatus.ACTIVE, None),
                (2, LifecycleStatus.DEGRADED, None),
                (3, LifecycleStatus.ACTIVE, ActionKind.MARKED_DEGRADED),
            ]
        )
    )
    assert audit_lifecycle(db) == [
        "request 0 at 1ms: repair Active -> Active names no repair kind",
        "request 0 at 3ms: repair Degraded -> Active names no repair kind",
    ]


def test_audit_flags_time_regression():
    db = VnfDb()
    db.add(_entry([(5, LifecycleStatus.ACTIVE, None), (3, LifecycleStatus.COMPLETED, None)]))
    assert audit_lifecycle(db) == ["request 0 at 3ms: timestamps not monotone"]


@pytest.fixture(scope="module")
def corpus_runs(tmp_path_factory) -> list[tuple[str, SimReport, Path]]:
    """(name, report, output directory) of each bundled scenario and each
    seed-1 fault_storm sweep file, as bench/gen.py renders it, run and written."""
    inputs = [(path.stem, path.read_bytes()) for path in sorted(SCENARIOS.glob("*.json"))]
    gen = bench_module("gen")
    sweep = gen.WORKLOADS["fault_storm"]["sweep"]
    inputs += [
        (f"fault_storm-1-{index:02d}", gen.render("fault_storm", 1, index))
        for index in range(sweep)
    ]
    runs = []
    for name, data in inputs:
        doc, diagnostics = parse_scenario(data)
        assert diagnostics == [], (name, diagnostics)
        report = run(doc)
        out_dir = tmp_path_factory.mktemp(name)
        write_report(report, out_dir)
        runs.append((name, report, out_dir))
    return runs


def test_every_edge_of_the_automaton_is_taken(corpus_runs):
    # An edge no run takes is dead: the automaton should not have it.
    taken = set()
    for _, report, _ in corpus_runs:
        for entry in report.entries.values():
            status = LifecycleStatus.REQUESTED
            for _, entered, _ in entry.log:
                taken.add((status, entered))
                status = entered
    edges = {(left, to) for left, targets in LEGAL_TRANSITIONS.items() for to in targets}
    assert edges - taken == set()


def test_counters_rebuild_from_the_dump_alone(corpus_runs):
    # Each counter but the rejections is read off db_dump.json: admissions
    # are its entries, repairs its records by kind and endings its statuses.
    # Rejected stays a tally: a rejected request has no entry to read.
    rejected = 0
    for name, _, out_dir in corpus_runs:
        dump = json.loads((out_dir / "db_dump.json").read_text(encoding="utf-8"))
        counters = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))["counters"]
        kinds = [step.get("kind") for entry in dump for step in entry["lifecycle"]]
        statuses = [entry["status"] for entry in dump]
        rebuilt = {
            "admitted": len(dump),
            "rerouted": kinds.count("Rerouted"),
            "migrated": kinds.count("Migrated"),
            "failed": statuses.count("Failed"),
            "completed": statuses.count("Completed"),
        }
        assert rebuilt == {key: counters[key] for key in rebuilt}, name
        rejected += counters["rejected_total"]
    assert rejected > 0


def _written_db(orch: Orchestrator, out_dir) -> list[dict]:
    """orch's database as a report's db_dump.json holds it, read back."""
    return written_dump(SimReport("db", 0, 0, 1, 0, {}, 0.9, entries=orch.db.entries), out_dir)


def test_dump_is_json_ready_and_sorted_by_request_id(tmp_path):
    orch = _orchestrator()
    orch.submit_request(make_request(rid=7), now=0)
    orch.submit_request(make_request(rid=3), now=10)
    dump = _written_db(orch, tmp_path)
    assert [item["request_id"] for item in dump] == [3, 7]
    assert dump[0]["lifecycle"] == [
        {"time_ms": 10, "from": "Requested", "to": "Active"}
    ]
    assert dump[1]["status"] == "Active"
    assert dump[1]["forwarding_graph"]["placements"] == [{"vnf": "fw", "host": 1}]
    assert dump[1]["forwarding_graph"]["segments"] == [[0], [1]]
    assert dump[1]["forwarding_graph"]["reserved_bw_mbps"] == 4.0
    text = (tmp_path / "db_dump.json").read_text()
    assert text == json.dumps(dump, indent=2, sort_keys=True) + "\n"


def test_counters_come_from_entries_and_the_two_tallies():
    orch = _orchestrator()
    orch.submit_request(make_request(rid=9, vnfs=("fw",) * 5), now=0)  # NoHost
    for rid in (0, 1, 2):  # the line's links carry two flows; 2 gets NoPath
        orch.submit_request(make_request(rid=rid), now=0)
    graph = orch.db.entries[0].graph
    same = ForwardingGraph(graph.hosts, graph.segments, graph.reserved_bw_kbps)
    orch.apply_action(Action(ActionKind.REROUTED, flow_id=0, new_graph=same), now=100)
    orch.apply_action(Action(ActionKind.MIGRATED, flow_id=0, new_graph=same), now=200)
    orch.apply_action(Action(ActionKind.FAILED, flow_id=0), now=300)
    orch.complete_request(1, now=400)
    assert orch.counters() == {
        "admitted": 2,
        "rejected": {"NoHost": 1, "NoPath": 1, "QoeBelowTarget": 0},
        "rejected_total": 2,
        "rerouted": 1,
        "migrated": 1,
        "failed": 1,
        "completed": 1,
    }
    assert orch.db.live() == []


def test_dumped_graph_status_is_the_last_one_the_flow_ran_under(tmp_path):
    orch = _orchestrator()
    orch.submit_request(make_request(rid=0), now=0)
    orch.submit_request(make_request(rid=1), now=0)
    orch.apply_action(Action(ActionKind.MARKED_DEGRADED, flow_id=0), now=100)
    orch.complete_request(0, now=200)
    orch.complete_request(1, now=200)
    orch.submit_request(make_request(rid=2), now=200)
    orch.apply_action(Action(ActionKind.FAILED, flow_id=2), now=300)
    dump = _written_db(orch, tmp_path)
    assert [(item["status"], item["forwarding_graph"]["status"]) for item in dump] == [
        ("Completed", "Degraded"),
        ("Completed", "Active"),
        ("Failed", "Failed"),
    ]
    # Each record's from is the status the record before it entered.
    assert [(record["from"], record["to"]) for record in dump[0]["lifecycle"]] == [
        ("Requested", "Active"),
        ("Active", "Degraded"),
        ("Degraded", "Completed"),
    ]
