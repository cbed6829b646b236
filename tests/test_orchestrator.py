"""Lifecycle automaton, the VNFs database, and orchestration flows."""

from __future__ import annotations

import json

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
)
from qoechain.errors import (
    AlreadyTerminal,
    DuplicateRequest,
    IllegalTransition,
    UnknownRequest,
)
from qoechain.orchestrator import LEGAL_TRANSITIONS, TERMINAL, DbEntry
from qoechain.service import ForwardingGraph

from generators import line_network, make_request, small_catalog

ELA = Ela(3.0, 2, 0.9)


def _orchestrator() -> Orchestrator:
    return Orchestrator(Controller(line_network(), small_catalog(), ELA))


def _entry(log, status) -> DbEntry:
    graph = ForwardingGraph(0, (("fw", 1),), ((0,), (1,)), 4000)
    entry = DbEntry(request=make_request(), graph=graph, status=status)
    entry.log = log
    return entry


def test_automaton_covers_every_status_and_terminals_are_sinks():
    assert set(LEGAL_TRANSITIONS) == set(LifecycleStatus)
    assert TERMINAL == {LifecycleStatus.FAILED, LifecycleStatus.COMPLETED}
    for status in TERMINAL:
        assert LEGAL_TRANSITIONS[status] == frozenset()
    assert LifecycleStatus.DEGRADED in LEGAL_TRANSITIONS[LifecycleStatus.ACTIVE]
    assert LEGAL_TRANSITIONS[LifecycleStatus.MIGRATING] == {
        LifecycleStatus.ACTIVE,
        LifecycleStatus.FAILED,
    }


def test_transition_rejects_illegal_edge_without_side_effects():
    db = VnfDb()
    entry = _entry([], LifecycleStatus.REQUESTED)
    with pytest.raises(IllegalTransition):
        db.transition(entry, LifecycleStatus.DEGRADED, now=0)
    assert entry.status is LifecycleStatus.REQUESTED
    assert entry.log == []


def test_transition_rejects_time_regression_but_allows_same_instant():
    db = VnfDb()
    entry = _entry([], LifecycleStatus.REQUESTED)
    db.transition(entry, LifecycleStatus.ACTIVE, now=100)
    with pytest.raises(IllegalTransition):
        db.transition(entry, LifecycleStatus.DEGRADED, now=99)
    db.transition(entry, LifecycleStatus.DEGRADED, now=100)
    assert entry.log == [
        (100, LifecycleStatus.REQUESTED, LifecycleStatus.ACTIVE),
        (100, LifecycleStatus.ACTIVE, LifecycleStatus.DEGRADED),
    ]


def test_submit_activates_and_logs():
    orch = _orchestrator()
    graph = orch.submit_request(make_request(), now=250)
    assert not isinstance(graph, Rejected)
    entry = orch.db.entries[0]
    assert entry.status is LifecycleStatus.ACTIVE
    assert entry.log == [(250, LifecycleStatus.REQUESTED, LifecycleStatus.ACTIVE)]
    assert entry.graph is graph


def test_submit_rejects_duplicate_ids():
    orch = _orchestrator()
    orch.submit_request(make_request(), now=0)
    with pytest.raises(DuplicateRequest):
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
    assert entry.log[-1] == (
        10_000,
        LifecycleStatus.ACTIVE,
        LifecycleStatus.COMPLETED,
    )
    assert orch.db.live() == []


def test_complete_unknown_or_finished_request_raises():
    orch = _orchestrator()
    with pytest.raises(UnknownRequest):
        orch.complete_request(42, now=0)
    orch.submit_request(make_request(), now=0)
    orch.complete_request(0, now=5)
    with pytest.raises(AlreadyTerminal):
        orch.complete_request(0, now=6)


def test_reroute_action_passes_through_migrating_at_one_instant():
    orch = _orchestrator()
    graph = orch.submit_request(make_request(), now=0)
    new_graph = ForwardingGraph(
        0, graph.placements, graph.segments, graph.reserved_bw_kbps
    )
    entry = orch.apply_action(
        Action(ActionKind.REROUTED, flow_id=0, new_graph=new_graph), now=3000
    )
    assert entry.status is LifecycleStatus.ACTIVE
    assert entry.graph is new_graph
    assert entry.log[-2:] == [
        (3000, LifecycleStatus.ACTIVE, LifecycleStatus.MIGRATING),
        (3000, LifecycleStatus.MIGRATING, LifecycleStatus.ACTIVE),
    ]


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
    with pytest.raises(AlreadyTerminal):
        orch.complete_request(0, now=600)


def test_action_for_unknown_flow_raises():
    orch = _orchestrator()
    with pytest.raises(UnknownRequest):
        orch.apply_action(Action(ActionKind.FAILED, flow_id=9), now=0)


def test_audit_passes_on_a_clean_history():
    orch = _orchestrator()
    graph = orch.submit_request(make_request(), now=0)
    orch.apply_action(Action(ActionKind.MARKED_DEGRADED, flow_id=0), now=1000)
    new_graph = ForwardingGraph(
        0, graph.placements, graph.segments, graph.reserved_bw_kbps
    )
    orch.apply_action(
        Action(ActionKind.REROUTED, flow_id=0, new_graph=new_graph), now=2000
    )
    orch.complete_request(0, now=3000)
    assert audit_lifecycle(orch.db) == []


def test_audit_flags_log_that_starts_past_requested():
    db = VnfDb()
    db.entries[0] = _entry(
        [(0, LifecycleStatus.ACTIVE, LifecycleStatus.DEGRADED)],
        LifecycleStatus.DEGRADED,
    )
    assert any("jumps" in violation for violation in audit_lifecycle(db))


def test_audit_flags_illegal_edge():
    db = VnfDb()
    db.entries[0] = _entry(
        [(0, LifecycleStatus.REQUESTED, LifecycleStatus.DEGRADED)],
        LifecycleStatus.DEGRADED,
    )
    assert any("illegal" in violation for violation in audit_lifecycle(db))


def test_audit_flags_time_regression():
    db = VnfDb()
    db.entries[0] = _entry(
        [
            (5, LifecycleStatus.REQUESTED, LifecycleStatus.ACTIVE),
            (3, LifecycleStatus.ACTIVE, LifecycleStatus.COMPLETED),
        ],
        LifecycleStatus.COMPLETED,
    )
    assert any("monotone" in violation for violation in audit_lifecycle(db))


def test_audit_flags_status_that_disagrees_with_log():
    db = VnfDb()
    db.entries[0] = _entry(
        [(0, LifecycleStatus.REQUESTED, LifecycleStatus.ACTIVE)],
        LifecycleStatus.COMPLETED,
    )
    assert any("ends at" in violation for violation in audit_lifecycle(db))


def test_dump_is_json_ready_and_sorted_by_request_id():
    orch = _orchestrator()
    orch.submit_request(make_request(rid=7), now=0)
    orch.submit_request(make_request(rid=3), now=10)
    dump = orch.db.dump()
    assert [item["request_id"] for item in dump] == [3, 7]
    assert dump[0]["lifecycle"] == [
        {"time_ms": 10, "from": "Requested", "to": "Active"}
    ]
    assert dump[1]["status"] == "Active"
    assert dump[1]["forwarding_graph"]["placements"] == [{"vnf": "fw", "host": 1}]
    assert dump[1]["forwarding_graph"]["segments"] == [[0], [1]]
    assert dump[1]["forwarding_graph"]["reserved_bw_mbps"] == 4.0
    json.dumps(dump)


def test_counters_come_from_entries_and_the_two_tallies():
    orch = _orchestrator()
    orch.submit_request(make_request(rid=9, vnfs=("fw",) * 5), now=0)  # NoHost
    for rid in (0, 1, 2):  # the line's links carry two flows; 2 gets NoPath
        orch.submit_request(make_request(rid=rid), now=0)
    graph = orch.db.entries[0].graph
    same = ForwardingGraph(0, graph.placements, graph.segments, graph.reserved_bw_kbps)
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


def test_dumped_graph_status_is_the_last_one_the_flow_ran_under():
    orch = _orchestrator()
    orch.submit_request(make_request(rid=0), now=0)
    orch.submit_request(make_request(rid=1), now=0)
    orch.apply_action(Action(ActionKind.MARKED_DEGRADED, flow_id=0), now=100)
    orch.complete_request(0, now=200)
    orch.complete_request(1, now=200)
    orch.submit_request(make_request(rid=2), now=200)
    orch.apply_action(Action(ActionKind.FAILED, flow_id=2), now=300)
    dump = orch.db.dump()
    assert [(item["status"], item["forwarding_graph"]["status"]) for item in dump] == [
        ("Completed", "Degraded"),
        ("Completed", "Active"),
        ("Failed", "Failed"),
    ]
