"""The report layer's JSON writers give json.dumps's text, and stream both JSON files."""

from __future__ import annotations

import io
import json
import math
import tempfile
import tracemalloc
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qoechain import ChainRequest, ForwardingGraph, parse_scenario, run, write_report
from qoechain.orchestrator import DbEntry, LifecycleStatus, VnfDb
from qoechain.report import FlowSummary, SimReport, _write_json, render_entry
from qoechain.scenario import _REQUEST, _dump

from generators import bench_module


def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def _written(value, depth: int = 0) -> str:
    handle = io.StringIO()
    _write_json(handle, value, depth)
    return handle.getvalue()


strings = st.text() | st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t é€ 😀'))
integers = st.integers() | st.integers(-(10**40), 10**40) | st.sampled_from([2**63, -(2**63) - 1])
floats = st.floats() | st.sampled_from([-0.0, 1e16, math.nan, math.inf, -math.inf])
scalars = st.none() | st.booleans() | integers | floats | strings
values = st.recursive(
    scalars,
    lambda children: (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(strings, children)
    ),
    max_leaves=20,
)


@settings(derandomize=True, max_examples=200)
@given(values)
def test_the_writer_gives_the_text_of_json_dumps(value):
    # Streamed at any depth, the text is the same.
    for depth in range(4):
        assert _written(value, depth) == _dumps(value)


# A lifecycle log: up to 8 (time, status) records at non-decreasing times.
logs = st.lists(
    st.tuples(st.integers(0, 10**6), st.sampled_from(list(LifecycleStatus))), max_size=8
).map(lambda records: sorted(records, key=itemgetter(0)))
ids = st.integers(0, 2**40)


@st.composite
def entries(draw, request_id=ids):
    """A database entry as a run could leave it, with names json must escape.

    A chain of zero VNFs is an unchained request: no placements, one
    segment. A segment may be empty: two consecutive VNFs on one host.
    """
    vnfs = draw(st.lists(strings, max_size=4))
    request = ChainRequest(
        id=draw(request_id),
        ingress=0,
        egress=draw(st.integers(1, 2**40)),
        vnf_sequence=tuple(vnfs),
        profile=draw(strings),
        ela_target=draw(st.integers(1, 5) | st.floats(1.0, 5.0)),
        arrival_ms=draw(st.integers(0, 10**9)),
        holding_ms=draw(st.integers(1, 10**9)),
    )
    graph = ForwardingGraph(
        hosts=tuple(draw(st.lists(ids, min_size=len(vnfs), max_size=len(vnfs)))),
        segments=tuple(
            tuple(draw(st.lists(ids, max_size=3))) for _ in range(len(vnfs) + 1)
        ),
        reserved_bw_kbps=draw(st.integers(0, 10**9)),
    )
    return DbEntry(request=request, graph=graph, log=draw(logs))


def _dumped(entry: DbEntry) -> dict:
    """entry as the plain dict db_dump.json holds.

    Each record names the status it left, and a completed flow's graph keeps
    the status it last ran under.
    """
    lifecycle = []
    status = ran_under = "Requested"
    for time_ms, entered in entry.log:
        lifecycle.append({"time_ms": time_ms, "from": status, "to": entered.value})
        ran_under, status = status, entered.value
    request, graph = entry.request, entry.graph
    return {
        "request_id": request.id,
        "request": _dump(request, _REQUEST.rows),
        "status": status,
        "forwarding_graph": {
            "placements": [
                {"vnf": name, "host": host_id}
                for name, host_id in zip(request.vnf_sequence, graph.hosts)
            ],
            "segments": [list(segment) for segment in graph.segments],
            "reserved_bw_mbps": graph.reserved_bw_kbps / 1000,
            "status": ran_under if status == "Completed" else status,
        },
        "lifecycle": lifecycle,
    }


@settings(derandomize=True, max_examples=300)
@given(entries())
def test_an_entry_renders_as_json_dumps_of_its_dict(entry):
    # db_dump.json holds each entry as an item of its top-level list.
    text = _dumps([_dumped(entry)])
    assert "[\n  " + render_entry(entry) + "\n]" == text
    # An int target is written as an int, as json.dumps writes it.
    assert type(json.loads(text)[0]["request"]["ela_target"]) is type(entry.request.ela_target)


@settings(derandomize=True, max_examples=50)
@given(st.lists(entries(st.integers(0, 50)), max_size=4))
def test_a_streamed_list_is_the_dumped_list_and_a_newline(items):
    by_id = {entry.request.id: entry for entry in items}
    report = SimReport("dumped", 1, 1000, 1000, 1, {}, {}, entries=by_id)
    with tempfile.TemporaryDirectory() as out:
        write_report(report, out)
        expected = [_dumped(by_id[request_id]) for request_id in sorted(by_id)]
        assert (Path(out) / "db_dump.json").read_text() == _dumps(expected) + "\n"


def test_a_non_str_key_or_an_unsupported_type_raises_type_error():
    for depth in (0, 2):
        with pytest.raises(TypeError):
            _written({"flows": {1: "a"}}, depth)
        with pytest.raises(TypeError):
            _written([{"hosts": {1, 2}}], depth)
    # json.dumps refuses the set as well.
    with pytest.raises(TypeError):
        _dumps([{"hosts": {1, 2}}])


def test_the_dump_of_an_empty_database_is_an_empty_list(tmp_path):
    report = SimReport("empty", 1, 1000, 1000, 1, {}, {}, entries=VnfDb().entries)
    write_report(report, tmp_path)
    assert (tmp_path / "db_dump.json").read_text() == "[]\n" == json.dumps([]) + "\n"


def test_the_dump_streams_one_entry_at_a_time(tmp_path):
    # The long-horizon file's 200 entries go to disk one at a time, so the
    # writer's peak holds about one entry's text, not the file's.
    doc, diagnostics = parse_scenario(bench_module("gen").render("steady_monitoring", 1, "long"))
    assert diagnostics == []
    db = run(doc).entries
    report = SimReport("streamed", 1, 1000, 1000, 1, {}, {}, entries=db)
    tracemalloc.start()
    try:
        write_report(report, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = (tmp_path / "db_dump.json").read_text()
    assert text == _dumps([_dumped(db[request_id]) for request_id in sorted(db)]) + "\n"
    assert len(db) == 200 and len(text) > 150_000
    assert peak < len(text) / 5


def test_the_summary_streams_one_flow_at_a_time(tmp_path):
    # summary.json goes to disk one top-level item at a time and, inside
    # "flows", one flow at a time, so the writer's peak holds about one
    # flow's text, not the file's.
    flow = FlowSummary(300, 0.5, False, list(range(300)), "Active")
    flows = dict.fromkeys(range(500), flow)
    report = SimReport("streamed", 1, 300_000, 1000, 300, {"admitted": 500}, flows)
    tracemalloc.start()
    try:
        write_report(report, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = (tmp_path / "summary.json").read_text()
    assert text == _dumps(report.summary_dict()) + "\n"
    assert len(text) > 1_000_000
    assert peak < len(text) / 10
