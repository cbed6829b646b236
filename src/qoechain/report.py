"""Run reports: in-memory shape and the on-disk artifact writers.

A finished run produces three files in the output directory:

  summary.json    counters plus a per-flow compliance digest
  qoe_series.csv  one row per (window, flow) with the MOS and its factors
  db_dump.json    the orchestrator database, lifecycle logs included

All three are rendered deterministically (sorted keys, fixed float
formatting) so identical runs produce byte-identical artifacts. The two JSON
files are the bytes of json.dumps(value, indent=2, sort_keys=True) plus a
newline, written by this module's own writer: json.dumps with an indent runs
json's pure-Python encoder. All three stream to disk: summary.json one
top-level item and one flow at a time, db_dump.json one database entry at a
time and the series one window at a time.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import IoFailure
from .qoe import QoeSample

# json's own C escaper: the text json.dumps gives a str, quotes included.
_escape = json.encoder.encode_basestring_ascii
_INF = float("inf")

CSV_HEADER = ["time_ms", "flow_id", "mos", "q_bw", "q_delay", "q_loss", "q_stall"]

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


@dataclass(frozen=True)
class FlowSummary:
    windows_observed: int
    compliance: float | None
    compliant: bool | None
    breach_windows: list[int]
    final_status: str


@dataclass
class SimReport:
    scenario_name: str
    seed: int
    duration_ms: int
    window_ms: int
    windows: int
    counters: dict[str, object]
    flows: dict[int, FlowSummary]
    # The QoE series: index = window index; each window's samples in
    # ascending flow id, [] when no flow was live. A settled flow's sample
    # is one object shared by every window that reused it, and consecutive
    # windows may be one list object: a quiet window's, shared by every
    # window that repeated it.
    series: list[list[QoeSample]] = field(default_factory=list)
    db_dump: list[dict] = field(default_factory=list)

    def summary_dict(self) -> dict:
        flows = {
            str(flow_id): vars(self.flows[flow_id]) for flow_id in sorted(self.flows)
        }
        return {
            "scenario": self.scenario_name,
            "seed": self.seed,
            "duration_ms": self.duration_ms,
            "window_ms": self.window_ms,
            "windows": self.windows,
            "counters": self.counters,
            "flows": flows,
        }


def _append_json(value, indent: str, parts: list[str]) -> None:
    """Append the text of json.dumps(value, indent=2, sort_keys=True) to parts.

    indent is a newline plus the spaces of value's depth. Only the exact
    built-in types json writes are taken, and dict keys must be str; any
    other value raises TypeError, and so does any other key, in sorted or
    in json's escaper, which takes only a str. Scalars are spelled as json
    spells them: str through json's escaper, int and float by their reprs,
    NaN and the infinities by json's names.
    """
    kind = type(value)
    if kind is str:
        parts.append(_escape(value))
    elif kind is int:
        parts.append(int.__repr__(value))
    elif kind is dict:
        if not value:
            parts.append("{}")
            return
        inner = indent + "  "
        separator = "{" + inner
        for key in sorted(value):
            parts.append(separator + _escape(key) + ": ")
            _append_json(value[key], inner, parts)
            separator = "," + inner
        parts.append(indent + "}")
    elif kind is list or kind is tuple:
        if not value:
            parts.append("[]")
            return
        inner = indent + "  "
        separator = "[" + inner
        for item in value:
            parts.append(separator)
            _append_json(item, inner, parts)
            separator = "," + inner
        parts.append(indent + "]")
    elif kind is float:
        if -_INF < value < _INF:
            parts.append(float.__repr__(value))
        elif value != value:
            parts.append("NaN")
        else:
            parts.append("Infinity" if value > 0 else "-Infinity")
    elif value is None:
        parts.append("null")
    elif kind is bool:
        parts.append("true" if value else "false")
    else:
        msg = f"Object of type {kind.__name__} is not JSON serializable"
        raise TypeError(msg)


def _write_json(handle, value, depth: int, indent: str = "\n", lead: str = "") -> None:
    """Write lead and the text of json.dumps(value, indent=2, sort_keys=True).

    The containers less than depth levels below value are opened and closed
    here, and each of their items is rendered by _append_json and written,
    after its separator, in one write, so the writer holds one item's text
    at a time. indent is as _append_json takes it.
    """
    kind = type(value)
    if not (depth and value and (kind is dict or kind is list or kind is tuple)):
        parts = [lead]
        _append_json(value, indent, parts)
        handle.write("".join(parts))
        return
    inner = indent + "  "
    if kind is dict:
        separator, closing = lead + "{" + inner, "}"
        items = ((_escape(key) + ": ", value[key]) for key in sorted(value))
    else:
        separator, closing = lead + "[" + inner, "]"
        items = (("", item) for item in value)
    for label, item in items:
        _write_json(handle, item, depth - 1, inner, separator + label)
        separator = "," + inner
    handle.write(indent + closing)


def _write_series(handle, series: list[list[QoeSample]], window_ms: int) -> None:
    """Stream the QoE series with fixed six-decimal floats, one window at a time.

    A row's time is the end of its window, (window index + 1) * window_ms,
    when the kernel measured it; rows come out in the series' (window, flow
    id) order. A settled flow hands the same sample object to a run of
    consecutive windows, so each sample's score text is formatted once and
    looked up by id in the next window. Every sample stays alive in the
    series for the whole write, so no id is reused while it is a key. A
    window that is the previous window's very list takes all of its texts
    as they are, in one join.
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
                    text = (
                        f"{sample.flow_id},{sample.mos:.6f},{sample.q_bw:.6f},"
                        f"{sample.q_delay:.6f},{sample.q_loss:.6f},{sample.q_stall:.6f}"
                    )
                current[id(sample)] = text
                texts.append(text)
            previous, last = current, samples
        if texts:
            prefix = f"{(index + 1) * window_ms},"
            handle.write(prefix + ("\n" + prefix).join(texts) + "\n")


def write_report(report: SimReport, out_dir: str | Path) -> list[Path]:
    """Write the three artifacts, returning their paths."""
    directory = Path(out_dir)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        summary_path = directory / "summary.json"
        series_path = directory / "qoe_series.csv"
        dump_path = directory / "db_dump.json"
        with open(summary_path, "w", encoding="utf-8") as handle:
            _write_json(handle, report.summary_dict(), depth=2)
            handle.write("\n")
        with open(series_path, "w", encoding="utf-8") as handle:
            _write_series(handle, report.series, report.window_ms)
        with open(dump_path, "w", encoding="utf-8") as handle:
            _write_json(handle, report.db_dump, depth=1)
            handle.write("\n")
    except OSError as exc:
        msg = f"cannot write report to {directory}: {exc}"
        raise IoFailure(msg) from exc
    return [summary_path, series_path, dump_path]


def _check_fields(path: Path, where: str, value, fields: dict) -> None:
    """Raise IoFailure unless value is a JSON object holding fields, each of its types."""
    if not isinstance(value, dict):
        raise IoFailure(f"{path}: {where} is not a JSON object")
    for key, kinds in fields.items():
        if key not in value or type(value[key]) is bool or not isinstance(value[key], kinds):
            raise IoFailure(f"{path}: {where} has no valid {key!r}")


def read_summary(out_dir: str | Path) -> dict:
    """The summary.json in out_dir, checked to hold what `qoechain report` reads."""
    path = Path(out_dir) / "summary.json"
    try:
        summary = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        msg = f"cannot read {path}: {exc}"
        raise IoFailure(msg) from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        msg = f"{path} is not valid JSON: {exc}"
        raise IoFailure(msg) from exc
    _check_fields(path, "the summary", summary, _SUMMARY_FIELDS)
    _check_fields(path, "counters", summary["counters"], _COUNTER_FIELDS)
    for flow_id, flow in summary["flows"].items():
        if not flow_id.isdecimal():
            raise IoFailure(f"{path}: flow id {flow_id!r} is not a number")
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
        raise IoFailure(msg) from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        msg = f"{path} is not a UTF-8 CSV file: {exc}"
        raise IoFailure(msg) from exc
