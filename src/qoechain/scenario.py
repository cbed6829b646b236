"""Scenario documents: strict JSON parsing, validation and serialization.

Parsing is strict: unknown keys, bad types and broken cross-references all
become diagnostics that carry the JSON location (network.links[2].loss_pct)
so a scenario author can fix the file without reading this code. A valid
document round-trips: parse(serialize(parse(text))) equals parse(text).

Each record kind has one field table from JSON keys to dataclass attributes.
The parser builds each record by its table and diagnoses what the record's
validator raises, so each value rule lives only in the dataclass; the
serializer writes by the same tables. Only what no single record can know
is checked here: the meta rules, references between records and node
kinds, and times within the duration.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

from .controller import PolicyConfig
from .errors import InvalidRange, SimulatorError
from .network import LinkSpec, NodeKind, NodeSpec, PathMetrics, check_link_quality
from .qoe import Ela, check_stall_ratio
from .rng import seed_fits
from .service import AppProfile, ChainRequest, VnfType
from .units import KBPS_PER_MBPS, kbps_to_mbps, mbps_to_kbps


@dataclass(frozen=True)
class Diagnostic:
    path: str
    message: str


def _check_time(time_ms: int) -> None:
    if time_ms < 0:
        raise InvalidRange("time_ms must be non-negative", field="time_ms")


# Fault records; the kernel queues each, in value order, as the event at its
# time_ms.


@dataclass(frozen=True)
class HostFailure:
    time_ms: int
    host: int

    def __post_init__(self):
        _check_time(self.time_ms)


@dataclass(frozen=True)
class LinkDegradation:
    time_ms: int
    link: int
    latency_ms: float | None = None
    jitter_ms: float | None = None
    loss_pct: float | None = None

    def __post_init__(self):
        _check_time(self.time_ms)
        given = [name for name in PathMetrics._fields if getattr(self, name) is not None]
        if not given:
            raise InvalidRange("degradation changes nothing")
        for name in given:
            try:
                check_link_quality(self.link, **{name: getattr(self, name)})
            except InvalidRange as exc:
                # A degradation sets its figures one by one, so a bad one is its own fault.
                raise InvalidRange(str(exc), field=name) from None


@dataclass(frozen=True)
class StallInjection:
    time_ms: int
    flow: int
    stall_ratio: float

    def __post_init__(self):
        _check_time(self.time_ms)
        check_stall_ratio(self.stall_ratio)


@dataclass(frozen=True)
class ScenarioDoc:
    name: str
    seed: int
    duration_ms: int
    window_ms: int
    nodes: tuple[NodeSpec, ...]
    links: tuple[LinkSpec, ...]
    vnf_types: tuple[VnfType, ...]
    profiles: tuple[AppProfile, ...]
    ela: Ela
    policy: PolicyConfig
    arrival_jitter_ms: int
    requests: tuple[ChainRequest, ...]
    host_failures: tuple[HostFailure, ...]
    link_degradations: tuple[LinkDegradation, ...]
    stall_injections: tuple[StallInjection, ...]


# -- field tables ---------------------------------------------------------------


@dataclass(frozen=True)
class _Field:
    """One JSON key of a record and the attribute it fills.

    kind is the JSON type: int, number (finite, read as float), str or list.
    default stands in for an absent optional key. convert is a (load, dump)
    pair; load raises ValueError with the diagnostic message. unique is the
    message for a value an earlier item of the list holds. items is the
    table of a list's records. A None attribute is not serialized.
    """

    key: str
    attr: str
    kind: str
    required: bool = True
    default: Any = None
    convert: tuple[Callable[[Any], Any], Callable[[Any], Any]] | None = None
    unique: str | None = None
    items: _Table | None = None


@dataclass(frozen=True)
class _Table:
    cls: type
    rows: tuple[_Field, ...]


# The JSON types each kind accepts: json.loads gives exact types, and a bool
# is not an int here.
_JSON_TYPES = {"int": (int,), "number": (int, float), "str": (str,), "list": (list,)}


def _load_kbps(mbps: float) -> int:
    try:
        kbps = mbps_to_kbps(mbps)
    except OverflowError:
        raise ValueError("too large to convert to kbps") from None
    if abs(mbps * KBPS_PER_MBPS - kbps) > 1e-6:
        raise ValueError("resolution is 0.001 Mbps")
    return kbps


def _load_node_kind(value: str) -> NodeKind:
    try:
        return NodeKind(value)
    except ValueError:
        raise ValueError("must be host, switch or endpoint") from None


_NODE = _Table(NodeSpec, (
    _Field("id", "id", "int", unique="duplicate node id {!r}"),
    _Field("kind", "kind", "str", convert=(_load_node_kind, lambda kind: kind.value)),
    _Field("cpu_capacity", "cpu_capacity", "int", required=False, default=0),
    _Field("mem_capacity", "mem_capacity", "int", required=False, default=0),
))
_LINK = _Table(LinkSpec, (
    _Field("id", "id", "int", unique="duplicate link id {!r}"),
    _Field("a", "a", "int"),
    _Field("b", "b", "int"),
    _Field("bandwidth_mbps", "bandwidth_kbps", "number", convert=(_load_kbps, kbps_to_mbps)),
    _Field("latency_ms", "latency_ms", "number"),
    _Field("jitter_ms", "jitter_ms", "number", required=False, default=0.0),
    _Field("loss_pct", "loss_pct", "number", required=False, default=0.0),
))
_VNF_TYPE = _Table(VnfType, (
    _Field("name", "name", "str", unique="duplicate vnf type {!r}"),
    _Field("cpu_demand", "cpu_demand", "int"),
    _Field("mem_demand", "mem_demand", "int"),
    _Field("proc_latency_ms", "proc_latency_ms", "number"),
))
_PROFILE = _Table(AppProfile, (
    _Field("name", "name", "str", unique="duplicate profile {!r}"),
    _Field("bw_mbps", "bw_req_mbps", "number"),
    _Field("delay_opt_ms", "delay_opt_ms", "number"),
    _Field("delay_max_ms", "delay_max_ms", "number"),
    _Field("loss_max_pct", "loss_max_pct", "number"),
    _Field("stall_max", "stall_max", "number"),
))
_ELA = _Table(Ela, (
    _Field("target_mos", "target_mos", "number"),
    _Field("breach_windows", "breach_windows", "int"),
    _Field("compliance_budget", "compliance_budget", "number"),
))
_POLICY = _Table(PolicyConfig, (
    _Field("predictor_alpha", "predictor_alpha", "number", required=False, default=0.3),
    _Field("max_reroute_attempts", "max_reroute_attempts", "int", required=False, default=2),
))
# An absent ela_target is the ELA's target_mos; the parser supplies it.
_REQUEST = _Table(ChainRequest, (
    _Field("id", "id", "int", unique="duplicate request id {!r}"),
    _Field("ingress", "ingress", "int"),
    _Field("egress", "egress", "int"),
    _Field("vnfs", "vnf_sequence", "list", required=False, default=(), convert=(tuple, list)),
    _Field("profile", "profile", "str"),
    _Field("ela_target", "ela_target", "number", required=False),
    _Field("arrival_ms", "arrival_ms", "int"),
    _Field("holding_ms", "holding_ms", "int"),
))
_HOST_FAILURE = _Table(HostFailure, (
    _Field("time_ms", "time_ms", "int"),
    _Field("host", "host", "int", unique="host {!r} fails more than once"),
))
_LINK_DEGRADATION = _Table(LinkDegradation, (
    _Field("time_ms", "time_ms", "int"),
    _Field("link", "link", "int"),
    _Field("latency_ms", "latency_ms", "number", required=False),
    _Field("jitter_ms", "jitter_ms", "number", required=False),
    _Field("loss_pct", "loss_pct", "number", required=False),
))
_STALL_INJECTION = _Table(StallInjection, (
    _Field("time_ms", "time_ms", "int"),
    _Field("flow", "flow", "int"),
    _Field("stall_ratio", "stall_ratio", "number"),
))


def _records(key: str, attr: str, table: _Table, required: bool = False) -> _Field:
    """The row of a section's list of records."""
    return _Field(key, attr, "list", required, default=(), items=table)


# Sections in document order, key -> (required, rows, the ScenarioDoc attribute
# holding the section's record, or None when its fields sit on ScenarioDoc).
_SECTIONS = {
    "meta": (True, (
        _Field("name", "name", "str", default=""),
        _Field("seed", "seed", "int", default=0),
        _Field("duration_ms", "duration_ms", "int", default=0),
        _Field("window_ms", "window_ms", "int", default=1),
    ), None),
    "network": (True, (
        _records("nodes", "nodes", _NODE, required=True),
        _records("links", "links", _LINK, required=True),
    ), None),
    "catalog": (False, (_records("vnf_types", "vnf_types", _VNF_TYPE),), None),
    "profiles": (False, (_records("app_profiles", "profiles", _PROFILE),), None),
    "ela": (True, _ELA.rows, "ela"),
    "policy": (False, _POLICY.rows, "policy"),
    "workload": (True, (
        _Field("arrival_jitter_ms", "arrival_jitter_ms", "int", required=False, default=0),
        _records("requests", "requests", _REQUEST, required=True),
    ), None),
    "faults": (False, (
        _records("host_failures", "host_failures", _HOST_FAILURE),
        _records("link_degradations", "link_degradations", _LINK_DEGRADATION),
        _records("stall_injections", "stall_injections", _STALL_INJECTION),
    ), None),
}


# -- reading ---------------------------------------------------------------------


class _Ctx(list):
    """The diagnostics of one parse, in the order found.

    unbuilt maps a list's path to the keys of its items that read their key
    cleanly but did not build: such an item is diagnosed once, and a record
    naming its key is not diagnosed again for that.
    """

    def __init__(self):
        super().__init__()
        self.unbuilt: defaultdict[str, set] = defaultdict(set)

    def error(self, path: str, message: str) -> None:
        self.append(Diagnostic(path, message))


def _section(ctx: _Ctx, doc: dict, key: str) -> dict:
    if key not in doc:
        if _SECTIONS[key][0]:
            ctx.error(key, "missing required section")
        return {}
    value = doc.pop(key)
    if not isinstance(value, dict):
        ctx.error(key, "expected object")
        return {}
    return value


def _read(ctx: _Ctx, obj: dict, path: str, rows: tuple[_Field, ...], values: dict) -> dict:
    """Fill values from one JSON object by its rows, popping what it reads.

    A missing, mistyped or unconvertible key is diagnosed and the row's
    default stands in; an absent key keeps a value that values arrived with.
    Leftover keys are diagnosed as unknown.
    """
    for row in rows:
        if row.key not in obj:
            if row.required:
                ctx.error(f"{path}.{row.key}", "missing required key")
            values.setdefault(row.attr, row.default)
            continue
        value = obj.pop(row.key)
        try:
            if type(value) not in _JSON_TYPES[row.kind]:
                raise ValueError(f"expected {row.kind}")
            # float() overflows on an integer beyond the float range.
            if row.kind == "number" and not math.isfinite(value := float(value)):
                raise ValueError("expected finite number")
            if row.convert is not None:
                value = row.convert[0](value)
        except (ValueError, OverflowError) as exc:
            ctx.error(f"{path}.{row.key}", str(exc))
            value = row.default
        values[row.attr] = value
    if obj:
        for key in sorted(obj):
            ctx.error(f"{path}.{key}", "unknown key")
    return values


def _record(ctx: _Ctx, obj: dict, path: str, table: _Table, base: dict) -> Any:
    """The record one JSON object describes, or None once it is diagnosed.

    A value rule the record's validator raises is diagnosed at the key of
    the attribute it names, or at path when it names none.
    """
    before = len(ctx)
    values = _read(ctx, obj, path, table.rows, dict(base))
    if len(ctx) > before:
        return None
    try:
        return table.cls(**values)
    except InvalidRange as exc:
        key = next((row.key for row in table.rows if row.attr == exc.field), None)
        ctx.error(path if key is None else f"{path}.{key}", str(exc))
        return None


def _items(ctx: _Ctx, raw: list, path: str, table: _Table, base: dict) -> dict[str, Any]:
    """{item path: record} for each item of a JSON list that reads and builds."""
    built: dict[str, Any] = {}
    unique_row = next((row for row in table.rows if row.unique), None)
    seen: set = set()
    for index, item in enumerate(raw):
        item_path = f"{path}[{index}]"
        if type(item) is not dict:
            ctx.error(item_path, "expected object")
            continue
        before = len(ctx)
        key = None if unique_row is None else item.get(unique_row.key)
        record = _record(ctx, item, item_path, table, base)
        if record is None:
            if unique_row is not None:
                key_path = f"{item_path}.{unique_row.key}"
                if all(found.path != key_path for found in ctx[before:]):
                    ctx.unbuilt[path].add(key)
            continue
        if unique_row is not None:
            value = getattr(record, unique_row.attr)
            if value in seen:
                ctx.error(f"{item_path}.{unique_row.key}", unique_row.unique.format(value))
                continue
            seen.add(value)
        built[item_path] = record
    return built


def _read_section(ctx: _Ctx, doc: dict, key: str, base: dict | None = None) -> dict:
    """Read one section; a list becomes {item path: record}, base filling its items."""
    rows = _SECTIONS[key][1]
    values = _read(ctx, _section(ctx, doc, key), key, rows, {})
    for row in rows:
        if row.items is not None:
            path = f"{key}.{row.key}"
            values[row.attr] = _items(ctx, values[row.attr], path, row.items, base or {})
    return values


def _keys(ctx: _Ctx, records: dict, attr: str, path: str) -> set:
    """The keys a reference may name: the records' attr, plus the unbuilt items' keys."""
    return {getattr(record, attr) for record in records.values()} | ctx.unbuilt[path]


def _refs(ctx: _Ctx, records: dict, attr: str, known, message: str) -> None:
    """Diagnose records whose attr (also their JSON key) is not in known."""
    for path, record in records.items():
        value = getattr(record, attr)
        if value not in known:
            ctx.error(f"{path}.{attr}", message.format(value))


def parse_scenario(text: str | bytes) -> tuple[ScenarioDoc | None, list[Diagnostic]]:
    """Parse and validate a scenario document.

    Returns (doc, []) on success or (None, diagnostics) on any problem.
    """
    ctx = _Ctx()
    try:
        root = json.loads(text)
    # ValueError covers JSONDecodeError and bytes that are not UTF-8, and
    # nesting too deep for the decoder raises RecursionError.
    except (ValueError, RecursionError) as exc:
        ctx.error("$", f"invalid JSON: {exc}")
        return None, list(ctx)
    if not isinstance(root, dict):
        ctx.error("$", "top level must be an object")
        return None, list(ctx)

    doc = dict(root)
    meta = _read_section(ctx, doc, "meta")
    if not seed_fits(meta["seed"]):
        ctx.error("meta.seed", "must fit in an unsigned 64-bit integer")
    if meta["duration_ms"] < 0:
        ctx.error("meta.duration_ms", "must be non-negative")
        meta["duration_ms"] = 0
    if meta["window_ms"] <= 0:
        ctx.error("meta.window_ms", "must be positive")
        meta["window_ms"] = 1
    if meta["duration_ms"] % meta["window_ms"] != 0:
        ctx.error("meta.duration_ms", "must be a multiple of window_ms")
    times = range(meta["duration_ms"] + 1)

    network = _read_section(ctx, doc, "network")
    nodes = {node.id: node for node in network["nodes"].values()}
    node_ids = _keys(ctx, network["nodes"], "id", "network.nodes")
    for end in ("a", "b"):
        _refs(ctx, network["links"], end, node_ids, "unknown node {}")

    catalog = _read_section(ctx, doc, "catalog")
    profiles = _read_section(ctx, doc, "profiles")
    ela = _record(ctx, _section(ctx, doc, "ela"), "ela", _ELA, {})
    policy = _record(ctx, _section(ctx, doc, "policy"), "policy", _POLICY, {})

    # A broken ELA is already diagnosed; any valid target lets requests be checked.
    target = 3.0 if ela is None else ela.target_mos
    workload = _read_section(ctx, doc, "workload", {"ela_target": target})
    if workload["arrival_jitter_ms"] < 0:
        ctx.error("workload.arrival_jitter_ms", "must be non-negative")
    requests = workload["requests"]
    vnf_names = _keys(ctx, catalog["vnf_types"], "name", "catalog.vnf_types")
    for path, request in requests.items():
        for key in ("ingress", "egress"):
            node_id = getattr(request, key)
            node = nodes.get(node_id)
            if node_id not in node_ids:
                ctx.error(f"{path}.{key}", f"unknown node {node_id}")
            elif node is not None and node.kind is not NodeKind.ENDPOINT:
                ctx.error(f"{path}.{key}", f"node {node_id} is not an endpoint")
        for index, name in enumerate(request.vnf_sequence):
            if not isinstance(name, str) or name not in vnf_names:
                ctx.error(f"{path}.vnfs[{index}]", f"unknown vnf type {name!r}")
    profile_names = _keys(ctx, profiles["profiles"], "name", "profiles.app_profiles")
    _refs(ctx, requests, "profile", profile_names, "unknown profile {!r}")
    _refs(ctx, requests, "arrival_ms", times, "must be within [0, duration_ms]")

    faults = _read_section(ctx, doc, "faults")
    # A node that did not build has no kind to hold against it.
    hosts = {node.id for node in nodes.values() if node.kind is NodeKind.HOST}
    hosts |= ctx.unbuilt["network.nodes"]
    link_ids = _keys(ctx, network["links"], "id", "network.links")
    request_ids = _keys(ctx, requests, "id", "workload.requests")
    _refs(ctx, faults["host_failures"], "host", hosts, "node {} is not a host")
    _refs(ctx, faults["link_degradations"], "link", link_ids, "unknown link {}")
    _refs(ctx, faults["stall_injections"], "flow", request_ids, "unknown request {}")
    for key in ("host_failures", "link_degradations", "stall_injections"):
        _refs(ctx, faults[key], "time_ms", times, "must be within [0, duration_ms]")
    for key in sorted(doc):
        ctx.error(f"$.{key}", "unknown key")

    if ctx:
        return None, list(ctx)
    # Each row of these sections names the ScenarioDoc attribute it fills.
    fields = {"ela": ela, "policy": policy}
    for section in (meta, network, catalog, profiles, workload, faults):
        for attr, value in section.items():
            fields[attr] = tuple(value.values()) if isinstance(value, dict) else value
    return ScenarioDoc(**fields), []


# -- writing ---------------------------------------------------------------------


def _dump(record: Any, rows: tuple[_Field, ...]) -> dict:
    payload = {}
    for row in rows:
        value = getattr(record, row.attr)
        if value is None:
            continue
        if row.items is not None:
            value = [_dump(item, row.items.rows) for item in value]
        elif row.convert is not None:
            value = row.convert[1](value)
        payload[row.key] = value
    return payload


def serialize_scenario(doc: ScenarioDoc) -> str:
    """Canonical JSON for a scenario; parse(serialize(doc)) equals doc."""
    payload = {
        key: _dump(doc if owner is None else getattr(doc, owner), rows)
        for key, (_, rows, owner) in _SECTIONS.items()
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def load_scenario(path) -> tuple[ScenarioDoc | None, list[Diagnostic]]:
    """The scenario file at path, parsed from its bytes as parse_scenario parses them."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise SimulatorError(f"cannot read scenario {path}: {exc}") from exc
    return parse_scenario(data)
