"""The report writers: both JSON files as json.dumps spells them, streamed, and the series rows."""

from __future__ import annotations

import io
import json
import tempfile
import tracemalloc
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from qoechain import ChainRequest, ForwardingGraph, parse_scenario, run, write_report
from qoechain.controller import ActionKind
from qoechain.errors import SimulatorError
from qoechain.orchestrator import DbEntry, LifecycleStatus, VnfDb
from qoechain.qoe import QoeSample
from qoechain.report import CSV_HEADER, SimReport, _write_series, render_entry

from generators import bench_module


def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


strings = st.text() | st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t é€ 😀'))


# A lifecycle log: up to 8 (time, status, kind) records at non-decreasing times.
logs = st.lists(
    st.tuples(
        st.integers(0, 10**6),
        st.sampled_from(list(LifecycleStatus)),
        st.sampled_from([None, *ActionKind]),
    ),
    max_size=8,
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

    Each record names the status it left, and a record with a kind names
    it; a completed flow's graph keeps the status it last ran under.
    """
    lifecycle = []
    status = ran_under = "Requested"
    for time_ms, entered, kind in entry.log:
        record = {"time_ms": time_ms, "from": status, "to": entered.value}
        if kind is not None:
            record["kind"] = kind.value
        lifecycle.append(record)
        ran_under, status = status, entered.value
    request, graph = entry.request, entry.graph
    return {
        "request_id": request.id,
        "request": {
            "id": request.id,
            "ingress": request.ingress,
            "egress": request.egress,
            "vnfs": list(request.vnf_sequence),
            "profile": request.profile,
            "ela_target": request.ela_target,
            "arrival_ms": request.arrival_ms,
            "holding_ms": request.holding_ms,
        },
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
    report = SimReport("dumped", 1, 1000, 1000, 1, {}, 0.9, entries=by_id)
    with tempfile.TemporaryDirectory() as out:
        write_report(report, out)
        expected = [_dumped(by_id[request_id]) for request_id in sorted(by_id)]
        assert (Path(out) / "db_dump.json").read_text() == _dumps(expected) + "\n"


def test_the_dump_of_an_empty_database_is_an_empty_list(tmp_path):
    report = SimReport("empty", 1, 1000, 1000, 1, {}, 0.9, entries=VnfDb().entries)
    write_report(report, tmp_path)
    assert (tmp_path / "db_dump.json").read_text() == "[]\n" == json.dumps([]) + "\n"


def test_a_report_that_cannot_be_written_is_an_input_error(tmp_path):
    (tmp_path / "file").write_text("")
    report = SimReport("blocked", 1, 1000, 1000, 1, {}, 0.9, entries=VnfDb().entries)
    with pytest.raises(SimulatorError, match="cannot write report to .*file/out: "):
        write_report(report, tmp_path / "file" / "out")


def test_the_dump_streams_one_entry_at_a_time(tmp_path):
    # The long-horizon file's 200 entries go to disk one at a time, so the
    # writer's peak holds about one entry's text, not the file's.
    doc, diagnostics = parse_scenario(bench_module("gen").render("steady_monitoring", 1, "long"))
    assert diagnostics == []
    db = run(doc).entries
    report = SimReport("streamed", 1, 1000, 1000, 1, {}, 0.9, entries=db)
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


def _summarized(report: SimReport) -> dict:
    """report's summary.json as a plain dict, each flow's windows counted one window at a time."""
    flows = {}
    for flow_id, entry in report.entries.items():
        scores = [
            sample.mos
            for samples in report.series
            for sample in samples
            if sample.flow_id == flow_id
        ]
        met = sum(1 for mos in scores if mos >= entry.request.ela_target)
        compliance = met / len(scores) if scores else None
        flows[str(flow_id)] = {
            "windows_observed": len(scores),
            "compliance": compliance,
            "compliant": None if compliance is None else compliance >= report.compliance_budget,
            "breach_windows": entry.breach_windows,
            "final_status": entry.status.value,
        }
    return {
        "scenario": report.scenario_name,
        "seed": report.seed,
        "duration_ms": report.duration_ms,
        "window_ms": report.window_ms,
        "windows": report.windows,
        "counters": report.counters,
        "flows": flows,
    }


def _written_summary(report: SimReport) -> str:
    with tempfile.TemporaryDirectory() as out:
        write_report(report, out)
        return (Path(out) / "summary.json").read_text()


def _sample(flow_id: int, mos: float) -> QoeSample:
    """A sample of flow_id scoring mos, all of it on bandwidth."""
    return QoeSample(flow_id, mos, (mos - 1.0) / 4.0, 1.0, 1.0, 1.0)


# Flow ids of one to seven digits, so that "10" sorts before "2".
flow_ids = st.sampled_from([0, 1, 2, 9, 10, 11, 99, 100, 1000]) | st.integers(0, 10**6)
counts = st.integers(0, 10**9)


@st.composite
def summarized_runs(draw):
    """A report as a run could leave it: entries, a series and the ELA's budget.

    Each window holds samples of some of the entries in ascending flow id,
    and a drawn run of windows shares one list, as quiet windows do. A
    sample scores at an entry's target as often as elsewhere. An entry in
    no window was never observed.
    """
    by_id = {}
    for entry in draw(st.lists(entries(flow_ids), max_size=6)):
        entry.breach_windows = draw(st.lists(st.integers(0, 10**6), max_size=4))
        by_id[entry.request.id] = entry
    series = []
    for _ in range(draw(st.integers(0, 5))):
        samples = []
        for flow_id in sorted(by_id):
            if draw(st.booleans()):
                target = float(by_id[flow_id].request.ela_target)
                mos = draw(st.just(target) | st.floats(1.0, 5.0))
                samples.append(_sample(flow_id, mos))
        series += [samples] * draw(st.integers(1, 4))
    counters = draw(
        st.dictionaries(strings, counts | st.dictionaries(strings, counts), max_size=4)
    )
    return SimReport(
        scenario_name=draw(strings),
        seed=draw(st.integers(0, 2**64 - 1)),
        duration_ms=draw(counts),
        window_ms=draw(st.integers(1, 10**6)),
        windows=len(series),
        counters=counters,
        compliance_budget=draw(st.floats(0.0, 1.0)),
        series=series,
        entries=by_id,
    )


def _two_flow_run() -> SimReport:
    """Flows 2 and 10, one with an int and one with a float target; flow 2 never observed."""
    log = [(0, LifecycleStatus.ACTIVE, None)]
    by_id = {
        flow_id: DbEntry(
            ChainRequest(flow_id, 0, 1, (), "video", target, 0, 1000),
            ForwardingGraph(hosts=(), segments=((),), reserved_bw_kbps=0),
            log=log,
        )
        for flow_id, target in ((2, 3), (10, 2.5))
    }
    shared = [_sample(10, 2.5)]
    series = [[_sample(10, 2.0)], shared, shared]
    counters = {"admitted": 2, "rejected": {"NoPath": 1}, "rejected_total": 1}
    return SimReport("two", 1, 3000, 1000, 3, counters, 0.5, series, by_id)


@settings(derandomize=True, max_examples=300)
@given(summarized_runs())
@example(SimReport("empty", 0, 0, 1000, 0, {}, 0.5))
@example(_two_flow_run())
def test_the_summary_is_json_dumps_of_its_dict(report):
    assert _written_summary(report) == _dumps(_summarized(report)) + "\n"


def test_the_summary_streams_one_flow_at_a_time(tmp_path):
    # summary.json goes to disk one flow at a time, so the writer's peak
    # holds about one flow's text, not the file's. The 300 windows are one
    # shared list, counted as one run.
    log = [(0, LifecycleStatus.ACTIVE, None)]
    db = {
        flow_id: DbEntry(
            ChainRequest(flow_id, 0, 1, (), "video", 3.0, 0, 300_000),
            ForwardingGraph(hosts=(), segments=((),), reserved_bw_kbps=0),
            log=log,
            breach_windows=list(range(300)),
        )
        for flow_id in range(500)
    }
    samples = [_sample(flow_id, 3.0 + flow_id % 2) for flow_id in db]
    series = [samples] * 300
    report = SimReport("streamed", 1, 300_000, 1000, 300, {"admitted": 500}, 0.9, series, db)
    tracemalloc.start()
    try:
        write_report(report, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = (tmp_path / "summary.json").read_text()
    assert text == _dumps(_summarized(report)) + "\n"
    assert len(text) > 1_000_000
    assert peak < len(text) / 10


# Factor values that include 0, 1 and sixth-decimal halfway values, so that
# a MOS of 1.0 or 5.0 comes up, besides any factor in [0, 1].
factors = st.sampled_from([0.0, 1.0, 0.0000005, 0.9999995, 0.0000015, 0.5]) | st.floats(0.0, 1.0)


def _scored(flow_id: int, *quality: float) -> QoeSample:
    """A sample of flow_id with the four quality factors given, its MOS theirs."""
    q_bw, q_delay, q_loss, q_stall = quality
    return QoeSample(flow_id, 1.0 + 4.0 * q_bw * q_delay * q_loss * q_stall, *quality)


@st.composite
def series_windows(draw):
    """A QoE series as monitoring leaves it, and its window length.

    A window holds samples in ascending flow id, each fresh or one its flow
    had in an earlier window, or is empty, or is the previous window's very
    list, as a quiet window is.
    """
    made: dict[int, list[QoeSample]] = {}
    series: list[list[QoeSample]] = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["samples", "samples", "empty", "repeat"]))
        if kind == "repeat" and series:
            series.append(series[-1])
            continue
        window = []
        if kind == "samples":
            live = draw(st.sets(st.sampled_from([0, 1, 9, 10, 2**40]), max_size=4))
            for flow_id in sorted(live):
                earlier = made.setdefault(flow_id, [])
                if earlier and draw(st.booleans()):
                    window.append(draw(st.sampled_from(earlier)))
                else:
                    earlier.append(_scored(flow_id, *(draw(factors) for _ in range(4))))
                    window.append(earlier[-1])
        series.append(window)
    return series, draw(st.integers(1, 10**6))


def _reference_rows(series: list[list[QoeSample]], window_ms: int) -> str:
    """The series' CSV text, each row's fields spelled one at a time."""
    lines = [",".join(CSV_HEADER)]
    for index, samples in enumerate(series):
        for sample in samples:
            scores = (sample.mos, sample.q_bw, sample.q_delay, sample.q_loss, sample.q_stall)
            fields = [str((index + 1) * window_ms), str(sample.flow_id)]
            lines.append(",".join(fields + [format(score, ".6f") for score in scores]))
    return "\n".join(lines) + "\n"


_halfway = [_scored(1, 0.0000005, 1.0, 1.0, 1.0), _scored(9, 0.9999995, 1.0, 1.0, 1.0)]


@settings(derandomize=True, max_examples=300)
@given(series_windows())
@example(([], 1000))
@example(([[_scored(0, 0.0, 1.0, 1.0, 1.0)], [], [_scored(0, 1.0, 1.0, 1.0, 1.0)]], 1000))
@example(([_halfway, _halfway, [], _halfway[1:], [_halfway[0]]], 1000))
def test_each_series_row_is_its_fields_spelled_one_at_a_time(drawn):
    series, window_ms = drawn
    handle = io.StringIO()
    _write_series(handle, series, window_ms)
    assert handle.getvalue() == _reference_rows(series, window_ms)
