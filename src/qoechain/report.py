"""Run reports: in-memory shape and the on-disk artifact writers.

A finished run produces three files in the output directory:

  summary.json    counters plus a per-flow compliance digest
  qoe_series.csv  one row per (window, flow) with the MOS and its factors
  db_dump.json    the orchestrator database, lifecycle logs included

All three are rendered deterministically (sorted keys, fixed float
formatting) so identical runs produce byte-identical artifacts. The two JSON
files are the bytes of json.dumps(value, indent=2, sort_keys=True) plus a
newline, but json.dumps, which with an indent runs json's pure-Python
encoder, writes neither. Each is filled into fixed, pre-indented templates
whose keys are in sorted order, straight from the database entries and the
series: db_dump.json one entry at a time in request-id order, its request
by a renderer built from scenario.py's request table, and summary.json one
flow at a time in the sorted order of its string keys, each flow's windows
observed and met read off the series as it is written. The series streams
one window at a time, each row its window's time and _ROW's text, formatted
once per sample. Scalars are spelled as json.dumps spells the value's own
type: strings through json's C escaper, numbers by int's or float's repr,
and lists and objects of those texts by _json_list. A lifecycle record is
its (from, to, kind) template in _RECORDS with its time filled in, and a
segment is one join of its node ids in _SEGMENT.
"""

from __future__ import annotations

import csv
import json
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import Callable

from .controller import ActionKind
from .errors import SimulatorError
from .orchestrator import DbEntry, LifecycleStatus
from .qoe import QoeSample
from .scenario import _REQUEST
from .service import ChainRequest
from .units import kbps_to_mbps

# json's own C escaper: the text json.dumps gives a str, quotes included.
_escape = json.encoder.encode_basestring_ascii

CSV_HEADER = ["time_ms", *QoeSample._fields]
# A series row after its time: a QoeSample, the flow id and the five scores
# with six decimals each.
_ROW = "%d,%.6f,%.6f,%.6f,%.6f,%.6f"

# What `qoechain report` reads off summary.json, each with the types it takes:
# the top level, the counters and each flow. A bool is not an int here.
_SUMMARY_FIELDS = {"scenario": str, "seed": int, "windows": int, "counters": dict, "flows": dict}
_COUNTER_FIELDS = dict.fromkeys(
    ("admitted", "rejected_total", "completed", "failed", "rerouted", "migrated"), int
)
_FLOW_FIELDS = {
    "final_status": str,
    "windows_observed": int,
    "compliance": (int, float, type(None)),
    "breach_windows": list,
}


@dataclass
class SimReport:
    """A finished run: what write_report writes, held as the run left it.

    No flow's line of summary.json is held here: it is rendered as it is
    written, from the flow's database entry and the windows the series holds
    it in, which are counted then.
    """

    scenario_name: str
    seed: int
    duration_ms: int
    window_ms: int
    windows: int
    counters: dict[str, object]
    # The ELA's least share of a flow's observed windows at or above its
    # target for the flow to count as compliant.
    compliance_budget: float
    # The QoE series: index = window index; each window's samples in
    # ascending flow id, [] when no flow was live. A settled flow's sample
    # is one object shared by every window that reused it, and consecutive
    # windows may be one list object: a quiet window's, shared by every
    # window that repeated it.
    series: list[list[QoeSample]] = field(default_factory=list)
    # The orchestrator's database entries by request id, the same objects:
    # both JSON files are rendered from them one entry at a time as they are
    # written.
    entries: dict[int, DbEntry] = field(default_factory=dict)


def _write_series(handle, series: list[list[QoeSample]], window_ms: int) -> None:
    """Stream the QoE series with fixed six-decimal floats, one window at a time.

    A row's time is the end of its window, (window index + 1) * window_ms,
    when the kernel measured it; rows come out in the series' (window, flow
    id) order, the rest of a row filled into _ROW. A settled flow hands the
    same sample object to a run of consecutive windows, so each sample's
    text is formatted once and looked up by id in the next window. Every
    sample stays alive in the series for the whole write, so no id is
    reused while it is a key. A window that is the previous window's very
    list takes all of its texts as they are, in one join.
    """
    handle.write(",".join(CSV_HEADER) + "\n")
    previous: dict[int, str] = {}
    last: list[QoeSample] | None = None
    texts: list[str] = []
    for index, samples in enumerate(series):
        if samples is not last:
            current: dict[int, str] = {}
            texts = []
            for sample in samples:
                text = previous.get(id(sample))
                if text is None:
                    text = _ROW % sample
                current[id(sample)] = text
                texts.append(text)
            previous, last = current, samples
        if texts:
            prefix = f"{(index + 1) * window_ms},"
            handle.write(prefix + ("\n" + prefix).join(texts) + "\n")


def _json_list(texts: list[str], indent: str, brackets: str = "[]") -> str:
    """The JSON list of the item texts given, its closing bracket at indent.

    With brackets "{}" it is the JSON object whose "key": value texts are given.
    """
    if not texts:
        return brackets
    inner = indent + "  "
    return brackets[0] + inner + ("," + inner).join(texts) + indent + brackets[1]


def _request_renderer(indent: str) -> Callable[[ChainRequest], str]:
    """A function giving a request's JSON object text, keyed as in a scenario's workload.

    The text is json.dumps's with indent=2 and sorted keys, for an object
    whose closing brace sits at indent (a newline and its spaces). It fills
    one template built here from the rows of scenario.py's request table,
    the one list of a request's keys: every attribute of a ChainRequest is
    set, so no key is ever left out. A number goes in by %r, which is int's
    or float's repr, as json.dumps spells the value's own type; a string
    goes through json's escaper, and the one list row holds VNF names.
    """
    inner = indent + "  "
    rows = sorted(_REQUEST.rows, key=lambda row: row.key)
    numeric = ("int", "number")
    template = "{" + ",".join(
        f"{inner}{_escape(row.key)}: {'%r' if row.kind in numeric else '%s'}" for row in rows
    ) + indent + "}"
    values = attrgetter(*(row.attr for row in rows))

    def spell_names(names: tuple[str, ...]) -> str:
        return _json_list([*map(_escape, names)], inner)

    spelled = [
        (index, _escape if row.kind == "str" else spell_names)
        for index, row in enumerate(rows)
        if row.kind not in numeric
    ]

    def render(request: ChainRequest) -> str:
        fields = list(values(request))
        for index, spell in spelled:
            fields[index] = spell(fields[index])
        return template % tuple(fields)

    return render


_STATUS_TEXT = {status: _escape(status.value) for status in LifecycleStatus}
_render_request = _request_renderer("\n    ")

# An entry's object as db_dump.json holds it, an item of the top-level list,
# with its keys and those of its placements and lifecycle records in sorted
# order. A %s takes a value's JSON text, and a %r a number, whose repr is
# the text json.dumps gives an int or a float.
_ENTRY = """{
    "forwarding_graph": {
      "placements": %s,
      "reserved_bw_mbps": %r,
      "segments": %s,
      "status": %s
    },
    "lifecycle": %s,
    "request": %s,
    "request_id": %r,
    "status": %s
  }"""
_PLACEMENT = """{
          "host": %r,
          "vnf": %s
        }"""
_SEGMENT = "[\n          %s\n        ]"
_RECORD = """{
        "from": %s,%s
        "time_ms": %%r,
        "to": %s
      }"""
# Each (from, to, kind) record, its time left to a %r; illegal ones too.
# Only a record that names a kind has a "kind" key.
_KIND_KEY = {None: "", **{kind: f'\n        "kind": {_escape(kind.value)},' for kind in ActionKind}}
_RECORDS = {
    (left, entered, kind): _RECORD % (_STATUS_TEXT[left], _KIND_KEY[kind], _STATUS_TEXT[entered])
    for left in LifecycleStatus for entered in LifecycleStatus for kind in _KIND_KEY
}


def render_entry(entry: DbEntry) -> str:
    """entry's object in db_dump.json, as an item of the file's list.

    The text is json.dumps's with indent=2 and sorted keys: the request as
    the workload keys it, the forwarding graph with each VNF's host, and the
    lifecycle log, each record with the status it left: its (from, to,
    kind) template in _RECORDS, with its time filled in.
    """
    request, graph = entry.request, entry.graph
    # Each record's from is the status the record before it entered.
    records = []
    status = ran_under = LifecycleStatus.REQUESTED
    for time_ms, entered, kind in entry.log:
        records.append(_RECORDS[status, entered, kind] % time_ms)
        ran_under, status = status, entered
    # A completed flow's graph keeps the status it last ran under.
    graph_status = ran_under if status is LifecycleStatus.COMPLETED else status
    placements = [
        _PLACEMENT % (host_id, _escape(name))
        for name, host_id in zip(request.vnf_sequence, graph.hosts)
    ]
    segments = [
        _SEGMENT % ",\n          ".join(map(repr, segment)) if segment else "[]"
        for segment in graph.segments
    ]
    return _ENTRY % (
        _json_list(placements, "\n      "),
        kbps_to_mbps(graph.reserved_bw_kbps),
        _json_list(segments, "\n      "),
        _STATUS_TEXT[graph_status],
        _json_list(records, "\n    "),
        _render_request(request),
        request.id,
        _STATUS_TEXT[status],
    )


def _write_entries(handle, entries: dict[int, DbEntry]) -> None:
    """Stream db_dump.json: the entries' list in request-id order, one entry at a time."""
    separator = "[\n  "
    for request_id in sorted(entries):
        handle.write(separator + render_entry(entries[request_id]))
        separator = ",\n  "
    handle.write("[]\n" if not entries else "\n]\n")


def _window_counts(
    series: list[list[QoeSample]], entries: dict[int, DbEntry]
) -> tuple[dict[int, int], dict[int, int]]:
    """Per flow id, the windows the series holds it in and those at or above its target.

    A flow is counted from its first sample on, so a flow id the series
    never holds has no count. A run of consecutive windows that share one
    sample list is counted once, times the run's length. Every list is alive
    in the series, so two windows with one id are one list. Each flow's
    target is read off its entry once.
    """
    targets = {flow_id: entry.request.ela_target for flow_id, entry in entries.items()}
    observed: defaultdict[int, int] = defaultdict(int)
    met: defaultdict[int, int] = defaultdict(int)
    for _, run_of_windows in groupby(series, key=id):
        samples, *repeats = run_of_windows
        length = 1 + len(repeats)
        for sample in samples:
            flow_id = sample.flow_id
            observed[flow_id] += length
            if sample.mos >= targets[flow_id]:
                met[flow_id] += length
    return observed, met


def _json_counts(counts: dict, indent: str) -> str:
    """The JSON object of counts, keys sorted; a count is a number or such an object."""
    texts = []
    for name in sorted(counts):
        count = counts[name]
        text = _json_counts(count, indent + "  ") if isinstance(count, dict) else repr(count)
        texts.append(f"{_escape(name)}: {text}")
    return _json_list(texts, indent, "{}")


# summary.json's object with its keys in sorted order, split where its flows
# stream in, and a flow's item of "flows", keyed by its id's digits.
_SUMMARY_HEAD = """{
  "counters": %s,
  "duration_ms": %r,
  "flows": """
_SUMMARY_TAIL = """,
  "scenario": %s,
  "seed": %r,
  "window_ms": %r,
  "windows": %r
}
"""
_FLOW = """"%r": {
      "breach_windows": %s,
      "compliance": %s,
      "compliant": %s,
      "final_status": %s,
      "windows_observed": %r
    }"""


def _write_summary(handle, report: SimReport) -> None:
    """Stream summary.json one flow at a time, in the sorted order of JSON's string keys.

    A flow's line is its entry's breach windows and status and its window
    counts off the series: its compliance is the share of its observed
    windows at or above its target, null for a flow never observed, and it
    is compliant when that share reaches the ELA's budget.
    """
    entries = report.entries
    observed, met = _window_counts(report.series, entries)
    handle.write(_SUMMARY_HEAD % (_json_counts(report.counters, "\n  "), report.duration_ms))
    separator = "{\n    "
    for flow_id in sorted(entries, key=str):
        entry = entries[flow_id]
        windows = observed.get(flow_id, 0)
        if windows:
            compliance = met.get(flow_id, 0) / windows
            compliance_text = repr(compliance)
            compliant_text = "true" if compliance >= report.compliance_budget else "false"
        else:
            compliance_text = compliant_text = "null"
        breaches = _json_list([*map(repr, entry.breach_windows)], "\n      ")
        status = _STATUS_TEXT[entry.status]
        handle.write(
            separator
            + _FLOW % (flow_id, breaches, compliance_text, compliant_text, status, windows)
        )
        separator = ",\n    "
    closing = "\n  }" if entries else "{}"
    handle.write(
        closing
        + _SUMMARY_TAIL
        % (_escape(report.scenario_name), report.seed, report.window_ms, report.windows)
    )


def write_report(report: SimReport, out_dir: str | Path) -> list[Path]:
    """Write the three artifacts, returning their paths."""
    directory = Path(out_dir)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        summary_path = directory / "summary.json"
        series_path = directory / "qoe_series.csv"
        dump_path = directory / "db_dump.json"
        with open(summary_path, "w", encoding="utf-8") as handle:
            _write_summary(handle, report)
        with open(series_path, "w", encoding="utf-8") as handle:
            _write_series(handle, report.series, report.window_ms)
        with open(dump_path, "w", encoding="utf-8") as handle:
            _write_entries(handle, report.entries)
    except OSError as exc:
        msg = f"cannot write report to {directory}: {exc}"
        raise SimulatorError(msg) from exc
    return [summary_path, series_path, dump_path]


def _check_fields(path: Path, where: str, value, fields: dict) -> None:
    """Raise a SimulatorError unless value is a JSON object holding fields, each of its types."""
    if not isinstance(value, dict):
        raise SimulatorError(f"{path}: {where} is not a JSON object")
    for key, kinds in fields.items():
        if key not in value or type(value[key]) is bool or not isinstance(value[key], kinds):
            raise SimulatorError(f"{path}: {where} has no valid {key!r}")


def read_summary(out_dir: str | Path) -> dict:
    """The summary.json in out_dir, checked to hold what `qoechain report` reads."""
    path = Path(out_dir) / "summary.json"
    try:
        summary = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        msg = f"cannot read {path}: {exc}"
        raise SimulatorError(msg) from exc
    # ValueError covers JSONDecodeError and UnicodeDecodeError, and nesting
    # too deep for the decoder raises RecursionError.
    except (ValueError, RecursionError) as exc:
        msg = f"{path} is not valid JSON: {exc}"
        raise SimulatorError(msg) from exc
    _check_fields(path, "the summary", summary, _SUMMARY_FIELDS)
    _check_fields(path, "counters", summary["counters"], _COUNTER_FIELDS)
    for flow_id, flow in summary["flows"].items():
        if not flow_id.isdecimal():
            raise SimulatorError(f"{path}: flow id {flow_id!r} is not a number")
        _check_fields(path, f"flow {flow_id}", flow, _FLOW_FIELDS)
    return summary


def count_series_rows(out_dir: str | Path) -> int:
    """The data rows of qoe_series.csv, counted one row at a time."""
    path = Path(out_dir) / "qoe_series.csv"
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = csv.reader(handle)
            next(rows, None)  # the header
            return sum(1 for row in rows if row)
    except OSError as exc:
        msg = f"cannot read {path}: {exc}"
        raise SimulatorError(msg) from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        msg = f"{path} is not a UTF-8 CSV file: {exc}"
        raise SimulatorError(msg) from exc
