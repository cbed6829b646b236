"""The report layer's JSON writer gives json.dumps's text, and streams the dump."""

from __future__ import annotations

import io
import json
import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from qoechain import write_report
from qoechain.orchestrator import VnfDb
from qoechain.report import SimReport, _json_text, _write_json_list


def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


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
    assert _json_text(value) == _dumps(value)


@settings(derandomize=True, max_examples=50)
@given(st.lists(values, max_size=4))
def test_a_streamed_list_is_the_dumped_list_and_a_newline(items):
    handle = io.StringIO()
    _write_json_list(handle, items)
    assert handle.getvalue() == _dumps(items) + "\n"


def test_a_non_str_key_or_an_unsupported_type_raises_type_error():
    with pytest.raises(TypeError):
        _json_text({"flows": {1: "a"}})
    with pytest.raises(TypeError):
        _json_text([{"hosts": {1, 2}}])
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
