"""The report layer's JSON writer gives json.dumps's text, and streams both JSON files."""

from __future__ import annotations

import io
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qoechain import write_report
from qoechain.orchestrator import VnfDb
from qoechain.report import FlowSummary, SimReport, _write_json


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


@settings(derandomize=True, max_examples=50)
@given(st.lists(values, max_size=4))
def test_a_streamed_list_is_the_dumped_list_and_a_newline(items):
    report = SimReport("dumped", 1, 1000, 1000, 1, {}, {}, db_dump=items)
    with tempfile.TemporaryDirectory() as out:
        write_report(report, out)
        assert (Path(out) / "db_dump.json").read_text() == _dumps(items) + "\n"


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
    report = SimReport("empty", 1, 1000, 1000, 1, {}, {}, db_dump=VnfDb().dump())
    write_report(report, tmp_path)
    assert (tmp_path / "db_dump.json").read_text() == "[]\n" == json.dumps([]) + "\n"


def test_the_dump_streams_one_entry_at_a_time(tmp_path):
    # A db dump's entries go to disk one at a time, so the writer's peak
    # holds about one entry's text, not the file's.
    entry = {
        "request_id": 0,
        "status": "active",
        "forwarding_graph": {"segments": [[1, 2, 3], [4, 5]], "reserved_bw_mbps": 2.5},
        "lifecycle": [{"time_ms": t, "from": "pending", "to": "active"} for t in range(5)],
    }
    dump = [{**entry, "request_id": request_id} for request_id in range(2000)]
    report = SimReport("streamed", 1, 1000, 1000, 1, {}, {}, db_dump=dump)
    tracemalloc.start()
    try:
        write_report(report, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = (tmp_path / "db_dump.json").read_text()
    assert text == _dumps(dump) + "\n"
    assert len(text) > 1_000_000
    assert peak < len(text) / 10


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
