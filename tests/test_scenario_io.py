"""Scenario parsing: strict validation and exact diagnostic paths."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re
from pathlib import Path
from random import Random

import pytest

from qoechain import load_scenario, parse_scenario, scenario
from qoechain.controller import PolicyConfig
from qoechain.errors import InvalidRange, SimulatorError
from qoechain.scenario import HostFailure, LinkDegradation, StallInjection

from generators import bench_module

SCENARIOS = Path(__file__).parent.parent / "scenarios"


def _payload() -> dict:
    return {
        "meta": {"name": "t", "seed": 1, "duration_ms": 3000, "window_ms": 1000},
        "network": {
            "nodes": [
                {"id": 0, "kind": "endpoint"},
                {"id": 1, "kind": "host", "cpu_capacity": 8, "mem_capacity": 8},
                {"id": 2, "kind": "endpoint"},
            ],
            "links": [
                {"id": 0, "a": 0, "b": 1, "bandwidth_mbps": 10, "latency_ms": 5},
                {"id": 1, "a": 1, "b": 2, "bandwidth_mbps": 10, "latency_ms": 5},
            ],
        },
        "catalog": {
            "vnf_types": [
                {"name": "fw", "cpu_demand": 2, "mem_demand": 2, "proc_latency_ms": 1.0}
            ]
        },
        "profiles": {
            "app_profiles": [
                {
                    "name": "video",
                    "bw_mbps": 4,
                    "delay_opt_ms": 50,
                    "delay_max_ms": 400,
                    "loss_max_pct": 5,
                    "stall_max": 0.2,
                }
            ]
        },
        "ela": {"target_mos": 3.0, "breach_windows": 2, "compliance_budget": 0.9},
        "policy": {"predictor_alpha": 0.3},
        "workload": {
            "requests": [
                {
                    "id": 0,
                    "ingress": 0,
                    "egress": 2,
                    "vnfs": ["fw"],
                    "profile": "video",
                    "arrival_ms": 0,
                    "holding_ms": 1500,
                }
            ],
        },
        "faults": {
            "host_failures": [],
            "link_degradations": [],
            "stall_injections": [],
        },
    }


def test_valid_document_parses_with_no_diagnostics():
    doc, diagnostics = parse_scenario(json.dumps(_payload()))
    assert diagnostics == []
    assert doc.name == "t"
    assert doc.window_ms == 1000
    assert [node.id for node in doc.nodes] == [0, 1, 2]
    assert doc.links[0].bandwidth_kbps == 10_000
    assert doc.vnf_types[0].name == "fw"
    assert doc.profiles[0].bw_req_kbps == 4000
    assert doc.ela.target_mos == 3.0
    assert doc.requests[0].vnf_sequence == ("fw",)
    assert doc.requests[0].ela_target == 3.0


def test_omitted_sections_get_defaults():
    payload = {
        "meta": {"name": "bare", "seed": 0, "duration_ms": 0, "window_ms": 100},
        "network": {"nodes": [], "links": []},
        "ela": {"target_mos": 2.0, "breach_windows": 1, "compliance_budget": 1.0},
        "workload": {"requests": []},
    }
    doc, diagnostics = parse_scenario(json.dumps(payload))
    assert diagnostics == []
    assert doc.vnf_types == ()
    assert doc.profiles == ()
    assert doc.policy == PolicyConfig(0.3)
    assert doc.host_failures == ()
    assert doc.link_degradations == ()
    assert doc.stall_injections == ()


def test_invalid_json_is_a_root_diagnostic():
    doc, diagnostics = parse_scenario("{nope")
    assert doc is None
    assert diagnostics[0].path == "$"
    assert "invalid JSON" in diagnostics[0].message


@pytest.mark.parametrize(
    "text",
    [b"\x80{}", '{"a":' * 100_000],
    ids=["not_utf8", "nested_too_deep"],
)
def test_undecodable_json_is_a_root_diagnostic(text):
    doc, diagnostics = parse_scenario(text)
    assert doc is None
    assert [diagnostic.path for diagnostic in diagnostics] == ["$"]
    assert "invalid JSON" in diagnostics[0].message


def test_non_object_top_level_is_rejected():
    doc, diagnostics = parse_scenario("[]")
    assert doc is None
    assert diagnostics == [diagnostics[0]]
    assert diagnostics[0].path == "$"
    assert "object" in diagnostics[0].message


def _drop_meta(p):
    del p["meta"]


def _second_failure(p):
    p["faults"]["host_failures"] = [
        {"time_ms": 100, "host": 1},
        {"time_ms": 200, "host": 1},
    ]


CASES = [
    pytest.param(_drop_meta, "meta", "missing required section", id="meta-missing"),
    pytest.param(
        lambda p: p["meta"].pop("name"), "meta.name", "missing required key",
        id="meta-name-missing",
    ),
    pytest.param(
        lambda p: p["meta"].update(name=5), "meta.name", "expected str",
        id="meta-name-type",
    ),
    pytest.param(
        lambda p: p["meta"].update(seed=-1), "meta.seed", "64-bit", id="seed-negative"
    ),
    pytest.param(
        lambda p: p["meta"].update(seed=2**64), "meta.seed", "64-bit", id="seed-huge"
    ),
    pytest.param(
        lambda p: p["meta"].update(duration_ms=-5), "meta.duration_ms", "non-negative",
        id="duration-negative",
    ),
    pytest.param(
        lambda p: p["meta"].update(window_ms=0), "meta.window_ms", "positive",
        id="window-zero",
    ),
    pytest.param(
        lambda p: p["meta"].update(duration_ms=2500), "meta.duration_ms", "multiple",
        id="duration-not-multiple",
    ),
    pytest.param(
        lambda p: p["meta"].update(extra=1), "meta.extra", "unknown key",
        id="meta-unknown-key",
    ),
    pytest.param(
        lambda p: p.update(bogus={}), "$.bogus", "unknown key", id="root-unknown-key"
    ),
    pytest.param(
        lambda p: p["network"]["nodes"][0].update(kind="router"),
        "network.nodes[0].kind", "host, switch or endpoint", id="node-bad-kind",
    ),
    pytest.param(
        lambda p: p["network"]["nodes"].append({"id": 0, "kind": "endpoint"}),
        "network.nodes[3].id", "duplicate", id="node-duplicate-id",
    ),
    pytest.param(
        lambda p: p["network"]["nodes"][0].update(cpu_capacity=4),
        "network.nodes[0]", "only hosts", id="endpoint-with-cpu",
    ),
    pytest.param(
        lambda p: p["network"]["nodes"][0].update(id=-1),
        "network.nodes[0].id", "non-negative", id="node-negative-id",
    ),
    pytest.param(
        lambda p: p["network"]["links"][0].update(a=9),
        "network.links[0].a", "unknown node 9", id="link-unknown-endpoint",
    ),
    pytest.param(
        lambda p: p["network"]["links"][0].update(a=1, b=1),
        "network.links[0]", "self-loop", id="link-self-loop",
    ),
    pytest.param(
        lambda p: p["network"]["links"][0].update(bandwidth_mbps=0),
        "network.links[0].bandwidth_mbps", "at least 0.001", id="link-zero-bw",
    ),
    pytest.param(
        lambda p: p["network"]["links"][0].update(bandwidth_mbps=1.0000005),
        "network.links[0].bandwidth_mbps", "resolution", id="link-bw-resolution",
    ),
    pytest.param(
        lambda p: p["network"]["links"][0].update(latency_ms=-1),
        "network.links[0].latency_ms", "non-negative", id="link-negative-latency",
    ),
    pytest.param(
        lambda p: p["network"]["links"][0].update(loss_pct=150),
        "network.links[0].loss_pct", "[0, 100]", id="link-loss-range",
    ),
    pytest.param(
        lambda p: p["network"]["links"].append(
            {"id": 0, "a": 1, "b": 2, "bandwidth_mbps": 1, "latency_ms": 1}
        ),
        "network.links[2].id", "duplicate", id="link-duplicate-id",
    ),
    pytest.param(
        lambda p: p["catalog"]["vnf_types"].append(
            {"name": "fw", "cpu_demand": 1, "mem_demand": 1, "proc_latency_ms": 0}
        ),
        "catalog.vnf_types[1].name", "duplicate", id="vnf-duplicate",
    ),
    pytest.param(
        lambda p: p["catalog"]["vnf_types"][0].update(cpu_demand=-1),
        "catalog.vnf_types[0]", "non-negative", id="vnf-negative-demand",
    ),
    pytest.param(
        lambda p: p["profiles"]["app_profiles"][0].update(delay_max_ms=50),
        "profiles.app_profiles[0]", "delay_opt_ms < delay_max_ms",
        id="profile-delay-order",
    ),
    pytest.param(
        lambda p: p["profiles"]["app_profiles"][0].update(loss_max_pct=0),
        "profiles.app_profiles[0].loss_max_pct", "(0, 100]", id="profile-loss-range",
    ),
    pytest.param(
        lambda p: p["profiles"]["app_profiles"][0].update(stall_max=0),
        "profiles.app_profiles[0].stall_max", "(0, 1]", id="profile-stall-range",
    ),
    pytest.param(
        lambda p: p["profiles"]["app_profiles"][0].update(bw_mbps=0),
        "profiles.app_profiles[0].bw_mbps", "positive", id="profile-zero-bw",
    ),
    pytest.param(
        lambda p: p.pop("ela"), "ela", "missing required section", id="ela-missing"
    ),
    pytest.param(
        lambda p: p["ela"].update(target_mos=0.5), "ela.target_mos", "[1, 5]",
        id="ela-target-range",
    ),
    pytest.param(
        lambda p: p["ela"].update(breach_windows=0), "ela.breach_windows", "at least 1",
        id="ela-breach-range",
    ),
    pytest.param(
        lambda p: p["ela"].update(compliance_budget=1.5),
        "ela.compliance_budget", "[0, 1]", id="ela-budget-range",
    ),
    pytest.param(
        lambda p: p["policy"].update(predictor_alpha=0),
        "policy.predictor_alpha", "(0, 1]", id="policy-alpha-range",
    ),
    # The attempt cap is gone from the format: any value, the old
    # out-of-range 0 included, is an unknown key.
    pytest.param(
        lambda p: p["policy"].update(max_reroute_attempts=0),
        "policy.max_reroute_attempts", "unknown key", id="policy-attempts-range",
    ),
    pytest.param(
        lambda p: p.pop("workload"), "workload", "missing required section",
        id="workload-missing",
    ),
    pytest.param(
        lambda p: p["workload"].pop("requests"), "workload.requests",
        "missing required key", id="requests-missing",
    ),
    # Arrival jitter is gone from the format: the simulator draws nothing
    # at random, so any value is an unknown key.
    pytest.param(
        lambda p: p["workload"].update(arrival_jitter_ms=250),
        "workload.arrival_jitter_ms", "unknown key", id="jitter-unknown",
    ),
    pytest.param(
        lambda p: p["workload"]["requests"][0].update(ingress=1),
        "workload.requests[0].ingress", "not an endpoint", id="ingress-not-endpoint",
    ),
    pytest.param(
        lambda p: p["workload"]["requests"][0].update(vnfs=["nope"]),
        "workload.requests[0].vnfs[0]", "unknown vnf type", id="unknown-vnf",
    ),
    pytest.param(
        lambda p: p["workload"]["requests"][0].update(profile="nope"),
        "workload.requests[0].profile", "unknown profile", id="unknown-profile",
    ),
    pytest.param(
        lambda p: p["workload"]["requests"][0].update(arrival_ms=99_999),
        "workload.requests[0].arrival_ms", "[0, duration_ms]", id="arrival-late",
    ),
    pytest.param(
        lambda p: p["workload"]["requests"][0].update(holding_ms=0),
        "workload.requests[0].holding_ms", "positive", id="holding-zero",
    ),
    pytest.param(
        lambda p: p["workload"]["requests"].append(
            dict(p["workload"]["requests"][0])
        ),
        "workload.requests[1].id", "duplicate", id="request-duplicate-id",
    ),
    pytest.param(
        lambda p: p["workload"]["requests"][0].update(egress=0),
        "workload.requests[0]", "differ", id="ingress-equals-egress",
    ),
    pytest.param(
        lambda p: p["workload"]["requests"][0].update(ela_target=0.5),
        "workload.requests[0].ela_target", "[1, 5]", id="request-target-range",
    ),
    pytest.param(
        lambda p: p["faults"]["host_failures"].append({"time_ms": 0, "host": 0}),
        "faults.host_failures[0].host", "not a host", id="failure-not-a-host",
    ),
    pytest.param(
        _second_failure, "faults.host_failures[1].host", "more than once",
        id="host-fails-twice",
    ),
    pytest.param(
        lambda p: p["faults"]["link_degradations"].append({"time_ms": 0, "link": 0}),
        "faults.link_degradations[0]", "changes nothing", id="degradation-empty",
    ),
    pytest.param(
        lambda p: p["faults"]["link_degradations"].append(
            {"time_ms": 0, "link": 9, "latency_ms": 1}
        ),
        "faults.link_degradations[0].link", "unknown link", id="degradation-unknown-link",
    ),
    pytest.param(
        lambda p: p["faults"]["stall_injections"].append(
            {"time_ms": 0, "flow": 7, "stall_ratio": 0.5}
        ),
        "faults.stall_injections[0].flow", "unknown request", id="stall-unknown-flow",
    ),
    pytest.param(
        lambda p: p["faults"]["stall_injections"].append(
            {"time_ms": 0, "flow": 0, "stall_ratio": 1.5}
        ),
        "faults.stall_injections[0].stall_ratio", "[0, 1]", id="stall-ratio-range",
    ),
    pytest.param(
        lambda p: p["faults"]["stall_injections"].append(
            {"time_ms": 99_999, "flow": 0, "stall_ratio": 0.5}
        ),
        "faults.stall_injections[0].time_ms", "[0, duration_ms]", id="stall-too-late",
    ),
    pytest.param(
        lambda p: p["network"]["nodes"][1].update(cpu_capacity=-1),
        "network.nodes[1]", "non-negative", id="node-negative-capacity",
    ),
    pytest.param(
        lambda p: p["network"]["links"][0].update(jitter_ms=-1),
        "network.links[0].jitter_ms", "non-negative", id="link-negative-jitter",
    ),
    pytest.param(
        lambda p: p["network"]["links"][0].update(b=9),
        "network.links[0].b", "unknown node 9", id="link-unknown-b",
    ),
    pytest.param(
        lambda p: p["catalog"]["vnf_types"][0].update(name=""),
        "catalog.vnf_types[0].name", "non-empty", id="vnf-empty-name",
    ),
    pytest.param(
        lambda p: p["profiles"]["app_profiles"][0].update(name=""),
        "profiles.app_profiles[0].name", "non-empty", id="profile-empty-name",
    ),
    pytest.param(
        lambda p: p["catalog"]["vnf_types"][0].update(proc_latency_ms=-1),
        "catalog.vnf_types[0].proc_latency_ms", "non-negative",
        id="vnf-negative-proc-latency",
    ),
    pytest.param(
        lambda p: p["workload"]["requests"][0].update(id=-1),
        "workload.requests[0].id", "non-negative", id="request-negative-id",
    ),
    pytest.param(
        lambda p: p["workload"]["requests"][0].update(ingress=9),
        "workload.requests[0].ingress", "unknown node 9", id="ingress-unknown-node",
    ),
    pytest.param(
        lambda p: p["faults"]["link_degradations"].append(
            {"time_ms": 0, "link": 0, "latency_ms": -1}
        ),
        "faults.link_degradations[0].latency_ms", "non-negative",
        id="degradation-negative-latency",
    ),
    pytest.param(
        lambda p: p["faults"]["link_degradations"].append(
            {"time_ms": 0, "link": 0, "jitter_ms": -1}
        ),
        "faults.link_degradations[0].jitter_ms", "non-negative",
        id="degradation-negative-jitter",
    ),
    pytest.param(
        lambda p: p["faults"]["link_degradations"].append(
            {"time_ms": 0, "link": 0, "loss_pct": 101}
        ),
        "faults.link_degradations[0].loss_pct", "[0, 100]", id="degradation-loss-range",
    ),
    pytest.param(
        lambda p: p["faults"]["host_failures"].append({"time_ms": 99_999, "host": 1}),
        "faults.host_failures[0].time_ms", "[0, duration_ms]", id="failure-too-late",
    ),
    pytest.param(
        lambda p: p["network"]["links"][0].update(bandwidth_mbps=math.inf),
        "network.links[0].bandwidth_mbps", "expected finite number",
        id="link-bw-infinite",
    ),
    pytest.param(
        lambda p: p["network"]["links"][0].update(latency_ms=math.nan),
        "network.links[0].latency_ms", "expected finite number", id="link-latency-nan",
    ),
    pytest.param(
        lambda p: p["profiles"]["app_profiles"][0].update(delay_max_ms=math.nan),
        "profiles.app_profiles[0].delay_max_ms", "expected finite number",
        id="profile-delay-max-nan",
    ),
    pytest.param(
        lambda p: p["ela"].update(target_mos=-math.inf),
        "ela.target_mos", "expected finite number", id="ela-target-negative-infinity",
    ),
    pytest.param(
        lambda p: p["network"]["links"][0].update(bandwidth_mbps=1e308),
        "network.links[0].bandwidth_mbps", "too large", id="link-bw-overflows-kbps",
    ),
    pytest.param(
        lambda p: p["profiles"]["app_profiles"][0].update(bw_mbps=4.0004),
        "profiles.app_profiles[0].bw_mbps", "resolution is 0.001 Mbps",
        id="profile-bw-resolution",
    ),
    pytest.param(
        lambda p: p["profiles"]["app_profiles"][0].update(bw_mbps=0.0004),
        "profiles.app_profiles[0].bw_mbps", "resolution is 0.001 Mbps",
        id="profile-bw-below-resolution",
    ),
    pytest.param(
        lambda p: p["profiles"]["app_profiles"][0].update(bw_mbps=1e308),
        "profiles.app_profiles[0].bw_mbps", "too large", id="profile-bw-overflows-kbps",
    ),
    pytest.param(
        lambda p: p["network"]["links"][0].update(latency_ms=1e13),
        "network.links[0].latency_ms", "at most 1e+12", id="link-latency-above-cap",
    ),
    pytest.param(
        lambda p: p["network"]["links"][0].update(jitter_ms=1e13),
        "network.links[0].jitter_ms", "at most 1e+12", id="link-jitter-above-cap",
    ),
    pytest.param(
        lambda p: p["catalog"]["vnf_types"][0].update(proc_latency_ms=1e13),
        "catalog.vnf_types[0].proc_latency_ms", "at most 1e+12",
        id="vnf-proc-latency-above-cap",
    ),
    pytest.param(
        lambda p: p["faults"]["link_degradations"].append(
            {"time_ms": 0, "link": 0, "jitter_ms": 1e308}
        ),
        "faults.link_degradations[0].jitter_ms", "at most 1e+12",
        id="degradation-jitter-above-cap",
    ),
]


@pytest.mark.parametrize("mutate,path,fragment", CASES)
def test_diagnostics_carry_exact_paths(mutate, path, fragment):
    payload = _payload()
    mutate(payload)
    doc, diagnostics = parse_scenario(json.dumps(payload))
    assert doc is None
    assert any(
        item.path == path and fragment in item.message for item in diagnostics
    ), diagnostics


def _node_1_broken(p):
    p["network"]["nodes"][1]["cpu_capacity"] = -1


def _request_0_broken(p):
    p["workload"]["requests"][0]["holding_ms"] = 0
    p["faults"]["stall_injections"] = [{"time_ms": 0, "flow": 0, "stall_ratio": 0.5}]


def _link_0_broken(p):
    p["network"]["links"][0]["loss_pct"] = 101
    p["faults"]["link_degradations"] = [{"time_ms": 0, "link": 0, "latency_ms": 9}]


# An item that reads its key but does not build is diagnosed once: records
# naming that key get no "unknown ..." diagnostic on top.
CASCADE_CASES = [
    pytest.param(
        lambda p: p["profiles"]["app_profiles"][0].update(delay_max_ms=math.nan),
        [("profiles.app_profiles[0].delay_max_ms", "expected finite number")],
        id="profile-nan",
    ),
    pytest.param(
        _node_1_broken,
        [("network.nodes[1]", "node 1: capacities must be non-negative")],
        id="node-negative-capacity",
    ),
    pytest.param(
        lambda p: p["catalog"]["vnf_types"][0].update(cpu_demand=-1),
        [("catalog.vnf_types[0]", "vnf fw: demands must be non-negative")],
        id="vnf-negative-demand",
    ),
    pytest.param(
        _request_0_broken,
        [("workload.requests[0].holding_ms", "request 0: holding time must be positive")],
        id="request-zero-holding",
    ),
    pytest.param(
        _link_0_broken,
        [("network.links[0].loss_pct", "link 0: loss must be within [0, 100]")],
        id="link-loss-range",
    ),
    pytest.param(
        lambda p: p["profiles"]["app_profiles"][0].update(name=7),
        [
            ("profiles.app_profiles[0].name", "expected str"),
            ("workload.requests[0].profile", "unknown profile 'video'"),
        ],
        id="profile-key-unreadable",
    ),
]


@pytest.mark.parametrize("mutate,expected", CASCADE_CASES)
def test_an_item_that_does_not_build_is_diagnosed_once(mutate, expected):
    payload = json.loads((SCENARIOS / "host_failure_migration.json").read_text())
    mutate(payload)
    doc, diagnostics = parse_scenario(json.dumps(payload))
    assert doc is None
    assert [(item.path, item.message) for item in diagnostics] == expected


_UNKNOWN_ENDPOINTS = [
    ("workload.requests[0].ingress", "unknown node 0"),
    ("workload.requests[0].egress", "unknown node 2"),
]


# A section that is missing or not an object is diagnosed once: its keys
# take their defaults with no diagnostic each, and only references into it
# cascade. So is a list item that is not an object.
BROKEN_OBJECT_CASES = [
    pytest.param(
        lambda p: p.pop("meta"), [("meta", "missing required section")], id="meta-missing"
    ),
    pytest.param(lambda p: p.update(meta=[]), [("meta", "expected object")], id="meta-list"),
    pytest.param(
        lambda p: p.pop("network"),
        [("network", "missing required section"), *_UNKNOWN_ENDPOINTS],
        id="network-missing",
    ),
    pytest.param(
        lambda p: p.update(network=3),
        [("network", "expected object"), *_UNKNOWN_ENDPOINTS],
        id="network-number",
    ),
    pytest.param(lambda p: p.pop("ela"), [("ela", "missing required section")], id="ela-missing"),
    pytest.param(lambda p: p.update(ela="x"), [("ela", "expected object")], id="ela-string"),
    pytest.param(
        lambda p: p.pop("workload"), [("workload", "missing required section")],
        id="workload-missing",
    ),
    pytest.param(
        lambda p: p.update(workload=None), [("workload", "expected object")], id="workload-null"
    ),
    pytest.param(
        lambda p: p["network"]["links"].__setitem__(0, [1]),
        [("network.links[0]", "expected object")],
        id="link-list",
    ),
]


@pytest.mark.parametrize("mutate,expected", BROKEN_OBJECT_CASES)
def test_an_object_that_is_missing_or_not_an_object_is_diagnosed_once(mutate, expected):
    payload = json.loads((SCENARIOS / "basic.json").read_text())
    mutate(payload)
    doc, diagnostics = parse_scenario(json.dumps(payload))
    assert doc is None
    assert [(item.path, item.message) for item in diagnostics] == expected


# A diagnostic of a mutated record may also land on a record that names it:
# the mutation took away the node, link, request, profile or VNF type it
# refers to, or the meta.duration_ms its time must fall within.
REFERENCE_CASCADE = re.compile(
    r"unknown (node|link|request) -?\d+|node \d+ is not an? (host|endpoint)"
    r"|unknown (profile|vnf type) '.*'|must be within \[0, duration_ms\]"
)


def _record_kinds(payload: dict) -> list[tuple[str, list | None, tuple]]:
    """(path, JSON list or None for a single object, field rows) of each record kind."""
    kinds = []
    for section, (_, rows) in scenario._SECTIONS.items():
        listed = [row for row in rows if row.items is not None]
        if not listed:
            kinds.append((section, None, rows))
        for row in listed:
            kinds.append((f"{section}.{row.key}", payload[section][row.key], row.items.rows))
    return kinds


def _mutations(payload: dict, rng: Random) -> list[tuple[str, str, object]]:
    """Seeded single-field mutations of a document: (item path, key, new value).

    Each record kind gets, field by field, a value of the wrong JSON type,
    a NaN or infinity, out-of-range values and, for a required key, its
    removal (the value None); then an unknown key and, where the kind has
    a unique key and the list two or more items, an earlier item's key.
    Each mutation picks its item of a list at random.
    """
    mutations = []
    for kind, items, rows in _record_kinds(payload):

        def add(key, value):
            path = kind if items is None else f"{kind}[{rng.randrange(len(items))}]"
            mutations.append((path, key, value))

        for row in rows:
            add(row.key, 1 if row.kind == "str" else "x")
            if row.kind in ("int", "number"):
                add(row.key, rng.choice([math.nan, math.inf, -math.inf]))
                add(row.key, -1)
            if row.kind == "number":
                add(row.key, 1e13)
            if row.kind == "str":
                add(row.key, "")
            if row.required:
                add(row.key, None)
        add("surplus", 1)
        unique = next((row for row in rows if row.unique), None)
        if unique is not None and len(items) > 1:
            index = rng.randrange(1, len(items))
            earlier = items[rng.randrange(index)][unique.key]
            mutations.append((f"{kind}[{index}]", unique.key, earlier))
    return mutations


def _apply(payload: dict, path: str, key: str, value) -> None:
    section, _, rest = path.partition(".")
    if not rest:
        target = payload.setdefault(section, {})
    else:
        name, index = rest.rstrip("]").split("[")
        target = payload[section][name][int(index)]
    if value is None:
        target.pop(key, None)
    else:
        target[key] = value


# sha256 of the (path, message) lists the corpus below draws, one list per
# mutation in mutation order, as JSON.
CORPUS_DIGEST = "8319c5ee3402859cbbe332e0536b81e1e18dafd829c1328f9c559e672f8fa10d"


def test_single_field_mutations_of_a_bench_file_keep_their_diagnostics():
    # Mutations of a fault_storm file, which holds every record kind but a
    # policy (a mutation adds one): each diagnostic lands on the mutated
    # item or is a reference cascade, and the whole corpus is pinned.
    text = bench_module("gen").render("fault_storm", 1, 0)
    payload = json.loads(text)
    payload["policy"] = {"predictor_alpha": 0.3}
    text = json.dumps(payload)
    corpus = []
    for path, key, value in _mutations(payload, Random(2019)):
        mutated = json.loads(text)
        _apply(mutated, path, key, value)
        _, diagnostics = parse_scenario(json.dumps(mutated))
        for item in diagnostics:
            assert (
                item.path == path
                or item.path.startswith(f"{path}.")
                or REFERENCE_CASCADE.fullmatch(item.message)
            ), (path, key, value, item)
        corpus.append([[item.path, item.message] for item in diagnostics])
    assert len(corpus) > 150 and sum(map(bool, corpus)) > 0.9 * len(corpus)
    digest = hashlib.sha256(json.dumps(corpus).encode()).hexdigest()
    assert digest == CORPUS_DIGEST


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: HostFailure(time_ms=-1, host=1), id="failure-time"),
        pytest.param(
            lambda: LinkDegradation(time_ms=-1, link=0, latency_ms=1.0),
            id="degradation-time",
        ),
        pytest.param(lambda: LinkDegradation(time_ms=0, link=0), id="degradation-empty"),
        pytest.param(
            lambda: LinkDegradation(time_ms=0, link=0, latency_ms=-1.0),
            id="degradation-latency",
        ),
        pytest.param(
            lambda: LinkDegradation(time_ms=0, link=0, jitter_ms=-1.0),
            id="degradation-jitter",
        ),
        pytest.param(
            lambda: LinkDegradation(time_ms=0, link=0, loss_pct=101.0),
            id="degradation-loss",
        ),
        pytest.param(
            lambda: StallInjection(time_ms=-1, flow=0, stall_ratio=0.5), id="stall-time"
        ),
        pytest.param(
            lambda: StallInjection(time_ms=0, flow=0, stall_ratio=1.5), id="stall-ratio"
        ),
    ],
)
def test_fault_specs_reject_bad_values(build):
    with pytest.raises(InvalidRange):
        build()


def _bundled_inputs():
    """(name, bytes) of each bundled scenario, then of the benchmark's seed-1
    sweep files and long-horizon files, as bench/gen.py renders them."""
    for path in sorted(SCENARIOS.glob("*.json")):
        yield path.name, path.read_bytes()
    gen = bench_module("gen")
    for workload, params in gen.WORKLOADS.items():
        for index in range(params["sweep"]):
            yield f"{workload}-1-{index:02d}", gen.render(workload, 1, index)
    for workload in gen.LONG_HORIZON:
        yield f"{workload}-1-long", gen.render(workload, 1, "long")


def test_every_bundled_scenario_parses_clean():
    partial = 0
    for name, data in _bundled_inputs():
        doc, diagnostics = parse_scenario(data)
        assert diagnostics == [], (name, diagnostics)
        figures = [(f.latency_ms, f.jitter_ms, f.loss_pct) for f in doc.link_degradations]
        partial += sum(None in given for given in figures)
    # Some of these degradations give only some of their figures.
    assert partial > 0


def test_load_scenario_reads_files(tmp_path):
    doc, diagnostics = load_scenario(SCENARIOS / "basic.json")
    assert diagnostics == []
    assert doc.name == "basic"
    with pytest.raises(SimulatorError, match=r"cannot read scenario .*missing\.json: \[Errno 2\]"):
        load_scenario(tmp_path / "missing.json")


def test_each_optional_field_defaults_as_its_record_class_does():
    # An absent optional key and a record built without that attribute must
    # mean the same, so the field table and the dataclass state one default.
    tables = [table for table in vars(scenario).values() if isinstance(table, scenario._Table)]
    compared = set()
    for table in tables:
        declared = {field.name: field.default for field in dataclasses.fields(table.cls)}
        for row in table.rows:
            default = declared.get(row.attr, dataclasses.MISSING)
            if row.required or default is dataclasses.MISSING:
                continue
            assert (type(row.default), row.default) == (type(default), default), (
                table.cls.__name__,
                row.key,
            )
            compared.add((table.cls.__name__, row.attr))
    assert {
        ("PolicyConfig", "predictor_alpha"),
        ("NodeSpec", "cpu_capacity"),
        ("NodeSpec", "mem_capacity"),
        ("LinkSpec", "jitter_ms"),
        ("LinkSpec", "loss_pct"),
    } <= compared
