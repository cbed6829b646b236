"""Run reports: in-memory shape and the on-disk artifact writers.

A finished run produces three files in the output directory:

  summary.json    counters plus a per-flow compliance digest
  qoe_series.csv  one row per (window, flow) with the MOS and its factors
  db_dump.json    the orchestrator database, lifecycle logs included

All three are rendered deterministically (sorted keys, fixed float
formatting) so identical runs produce byte-identical artifacts.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import IoFailure
from .qoe import QoeSample

CSV_HEADER = ["time_ms", "flow_id", "mos", "q_bw", "q_delay", "q_loss", "q_stall"]


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
    rows: list[QoeSample] = field(default_factory=list)
    db_dump: list[dict] = field(default_factory=list)

    def summary_dict(self) -> dict:
        flows = {}
        for flow_id in sorted(self.flows):
            summary = self.flows[flow_id]
            flows[str(flow_id)] = {
                "windows_observed": summary.windows_observed,
                "compliance": summary.compliance,
                "compliant": summary.compliant,
                "breach_windows": list(summary.breach_windows),
                "final_status": summary.final_status,
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


def render_csv(rows: list[QoeSample], window_ms: int) -> str:
    """Render the QoE series with fixed six-decimal floats.

    A sample's time is the end of its window, (window_index + 1) * window_ms,
    when the kernel measured it.
    """
    lines = [",".join(CSV_HEADER)]
    ordered = sorted(rows, key=lambda row: (row.window_index, row.flow_id))
    for row in ordered:
        lines.append(
            f"{(row.window_index + 1) * window_ms},{row.flow_id},{row.mos:.6f},"
            f"{row.q_bw:.6f},{row.q_delay:.6f},{row.q_loss:.6f},{row.q_stall:.6f}"
        )
    return "\n".join(lines) + "\n"


def write_report(report: SimReport, out_dir: str | Path) -> list[Path]:
    """Write the three artifacts, returning their paths."""
    directory = Path(out_dir)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        summary_path = directory / "summary.json"
        series_path = directory / "qoe_series.csv"
        dump_path = directory / "db_dump.json"
        summary_text = json.dumps(report.summary_dict(), indent=2, sort_keys=True)
        summary_path.write_text(summary_text + "\n", encoding="utf-8")
        series_path.write_text(render_csv(report.rows, report.window_ms), encoding="utf-8")
        dump_text = json.dumps(report.db_dump, indent=2, sort_keys=True)
        dump_path.write_text(dump_text + "\n", encoding="utf-8")
    except OSError as exc:
        msg = f"cannot write report to {directory}: {exc}"
        raise IoFailure(msg) from exc
    return [summary_path, series_path, dump_path]


def read_summary(out_dir: str | Path) -> dict:
    path = Path(out_dir) / "summary.json"
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        msg = f"cannot read {path}: {exc}"
        raise IoFailure(msg) from exc
    return json.loads(text)


def read_series(out_dir: str | Path) -> list[dict]:
    path = Path(out_dir) / "qoe_series.csv"
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            return list(csv.DictReader(handle))
    except OSError as exc:
        msg = f"cannot read {path}: {exc}"
        raise IoFailure(msg) from exc
