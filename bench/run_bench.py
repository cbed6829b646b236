"""qoechain benchmark: host time to simulate a seeded sweep of scenarios.

Usage, from the repository root:

    python3 bench/run_bench.py --workload admission_churn --seed 1 \
        --seconds 30 --trace 0

bench/gen.py turns (workload, seed) into a sweep of scenario files. Each
file goes through the pipeline ``qoechain run`` uses:
``scenario.load_scenario``, then ``kernel.run``, then
``report.write_report``. Every time reported is host time, never simulated
time: the sum over the sweep of each file's mean wall-clock time over the
repetitions that fit in ``--seconds``, converted to seconds of a reference
machine by ``speed_scale``, because the speed of a shared machine swings by
up to twofold from one second to the next. The raw wall-clock sums go to the
result file.

Every pipeline run is checked: no exception (an ``InvariantViolation``
included), MOS within [1, 5], ``windows_observed`` adding up to the series
row count, and artifact digests identical to the first run of the same file.
A run that fails a check counts in ``failed``, and is not a timing.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json. With ``--trace 1`` it carries the per-layer metrics, taken
from runs in which bench/tracer.py wraps each layer's public entry points.
The simulated counters, artifact digests, run environment and, for traced
runs, the spans of the last traced sweep go to
``.bench_out/<workload>-<seed>/``.

The benchmark is single threaded. Besides itself it starts one process, and
waits for it before timing anything: a fresh interpreter that runs the sweep
once to measure peak memory, followed, on workloads whose flows live long,
by one long-horizon scenario that only this process runs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import heapq
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
ARTIFACTS = ("summary.json", "qoe_series.csv", "db_dump.json")
MIN_ROUNDS = 3
# What gauge() takes on the reference machine, a 2-vCPU VM running
# CPython 3.11; reported times are in seconds of that machine.
GAUGE_REF_S = 0.050
# Per-layer metrics whose names end so are times, scaled like the rest.
TIME_SUFFIXES = ("_s", "_us", "us_per_sample")
EVENT_TYPES = (
    "Arrival",
    "Departure",
    "MeasureWindow",
    "HostFailure",
    "LinkDegradation",
    "StallInjection",
)

# The end-to-end metric each group of per-layer metrics should move, and on
# which workloads, keyed by metric-name prefix.
LAYER_TARGETS = {
    "routing.sfp": "sim_s and events_per_s on admission_churn and fault_storm; flat on steady_monitoring",
    "controller.admit": "sim_s on admission_churn",
    "controller.monitor": "sim_s on steady_monitoring",
    "qoe.": "sim_s on steady_monitoring",
    "service.path_metrics": "sim_s on steady_monitoring",
    "controller.repair": "sim_s on fault_storm",
    "network.write": "sim_s on fault_storm",
    "orchestrator.": "sim_s on every workload",
    "kernel.": "sim_s on every workload",
    "scenario.": "setup_s, largest files on fault_storm",
    "report.": "write_s on steady_monitoring",
    "trace.": "none: the distortion the wrappers add",
}


@dataclass(frozen=True)
class _Label:
    cost: float
    hops: int


def gauge() -> float:
    """Seconds for a fixed pure-Python job: the machine's current speed.

    The job resembles what the simulator spends its time on: Dijkstra with
    tuple keys on a heap, dict lookups and small frozen dataclasses, here on
    a fixed ring-with-chords graph of 64 nodes. It shares no code with the
    simulator, so a change to the program under test cannot move it.
    """
    start = time.perf_counter()
    size = 64
    adjacency = {
        node: [((node + step) % size, 1.0 + (node * step) % 7) for step in (1, 5, 13)]
        for node in range(size)
    }
    for source in list(range(size)) * 2:
        best = {source: _Label(0.0, 0)}
        heap = [(0.0, 0, (), source)]
        done = set()
        while heap:
            cost, hops, path, node = heapq.heappop(heap)
            if node in done:
                continue
            done.add(node)
            for neighbor, weight in adjacency[node]:
                label = _Label(cost + weight, hops + 1)
                known = best.get(neighbor)
                if known is None or (label.cost, label.hops) < (known.cost, known.hops):
                    best[neighbor] = label
                    heapq.heappush(heap, (label.cost, label.hops, path + (node,), neighbor))
    return time.perf_counter() - start


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(out_dir: Path) -> dict[str, str]:
    return {name: sha256(out_dir / name) for name in ARTIFACTS}


def check_outputs(out_dir: Path) -> dict:
    """Check one run's artifacts and return its counters and sizes.

    Raises ValueError when a check fails.
    """
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    with open(out_dir / "qoe_series.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    bad = [row for row in rows if not 1.0 <= float(row["mos"]) <= 5.0]
    if bad:
        raise ValueError(f"{len(bad)} MOS values outside [1, 5], first {bad[0]}")
    observed = sum(flow["windows_observed"] for flow in summary["flows"].values())
    if observed != len(rows):
        raise ValueError(f"windows_observed sums to {observed}, series has {len(rows)} rows")
    return {
        "counters": summary["counters"],
        "rows": len(rows),
        "bytes": sum((out_dir / name).stat().st_size for name in ARTIFACTS),
    }


class Scenario:
    """One generated file and every checked pipeline run made on it."""

    def __init__(self, qc, path: Path, out_dir: Path):
        self.qc = qc
        self.path = path
        self.out_dir = out_dir
        self.scratch_dir = out_dir.with_name(out_dir.name + "-scratch")
        self.doc = None
        self.reference: dict[str, str] | None = None
        self.last_report = None
        self.facts: dict | None = None
        self.events: Counter = Counter()
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, produced: dict[str, str] | None, error: str | None = None) -> bool:
        """Count one pipeline run; False if it failed."""
        self.attempted += 1
        if error is None and produced != self.reference:
            error = "artifact digests differ from the first run of this file"
        if error is not None:
            self.failures.append(f"{self.path.name}: {error}")
            return False
        return True

    def prepare(self) -> None:
        """Load, run once with an event counter, and check the outputs.

        This run fixes the reference digests and doubles as the warm-up.
        """
        self.attempted += 1
        try:
            self.doc = load_doc(self.qc, self.path)
            hook = lambda event, state: self.events.update((type(event).__name__,))
            report = self.qc.kernel.run(self.doc, event_hook=hook)
            self.qc.report.write_report(report, self.out_dir)
            self.facts = check_outputs(self.out_dir)
        except Exception as exc:  # any failure of the program is a failed run
            self.failures.append(f"{self.path.name}: {type(exc).__name__}: {exc}")
            return
        self.reference = digests(self.out_dir)

    def timed_load(self) -> float:
        start = time.perf_counter()
        self.qc.scenario.load_scenario(self.path)
        return time.perf_counter() - start

    def timed_run(self) -> float | None:
        """Seconds in kernel.run, or None on failure; keeps the report."""
        gc.collect()
        try:
            start = time.perf_counter()
            report = self.qc.kernel.run(self.doc)
            elapsed = time.perf_counter() - start
            self._write_fresh(report)
        except Exception as exc:
            self.record(None, f"{type(exc).__name__}: {exc}")
            return None
        self.last_report = report
        return elapsed if self.record(digests(self.scratch_dir)) else None

    def timed_write(self) -> float | None:
        """Seconds to write the last report again; None if there is none."""
        if self.last_report is None:
            return None
        try:
            elapsed = self._write_fresh(self.last_report)
        except Exception as exc:
            self.record(None, f"{type(exc).__name__}: {exc}")
            return None
        return elapsed if self.record(digests(self.scratch_dir)) else None

    def _write_fresh(self, report) -> float:
        # A fresh directory each time, as for a new `qoechain run --out`:
        # rewriting files in place would also time the file system flushing
        # the previous contents.
        shutil.rmtree(self.scratch_dir, ignore_errors=True)
        start = time.perf_counter()
        self.qc.report.write_report(report, self.scratch_dir)
        return time.perf_counter() - start

    def traced_run(self) -> float | None:
        """Load, run and write once, for a caller holding a Tracer active.

        Returns the seconds in kernel.run, or None on failure.
        """
        try:
            doc = load_doc(self.qc, self.path)
            gc.collect()
            start = time.perf_counter()
            report = self.qc.kernel.run(doc)
            elapsed = time.perf_counter() - start
            self._write_fresh(report)
            produced = digests(self.scratch_dir)
        except Exception as exc:
            self.record(None, f"{type(exc).__name__}: {exc}")
            return None
        return elapsed if self.record(produced) else None


def load_program():
    """Import the simulator from the checkout's src/ directory."""
    if not (SRC / "qoechain" / "__init__.py").is_file():
        raise SystemExit(f"error: no simulator sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qoechain.cli
    import qoechain.kernel
    import qoechain.report
    import qoechain.scenario

    return qoechain


def load_doc(qc, path: Path):
    doc, diagnostics = qc.scenario.load_scenario(path)
    if doc is None:
        shown = "; ".join(f"{d.path}: {d.message}" for d in diagnostics[:5])
        raise ValueError(f"scenario rejected: {shown}")
    return doc


def smoke_bundled(qc, out_root: Path) -> list[str]:
    """Untimed check that the pipeline here matches ``qoechain run``.

    Each bundled scenario runs once through the CLI and twice through the
    pipeline; all three artifact sets must be byte-identical.
    """
    bundled = sorted((ROOT / "scenarios").glob("*.json"))
    if not bundled:
        return ["no bundled scenarios found"]
    problems = []
    for path in bundled:
        cli_dir = out_root / path.stem / "cli"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            status = qc.cli.main(["run", str(path), "--out", str(cli_dir)])
        if status != 0:
            problems.append(f"{path.name}: qoechain run exited {status}")
            continue
        expected = digests(cli_dir)
        for attempt in range(2):
            pipe_dir = out_root / path.stem / f"pipeline{attempt}"
            try:
                qc.report.write_report(qc.kernel.run(load_doc(qc, path)), pipe_dir)
            except Exception as exc:
                problems.append(f"{path.name}: {type(exc).__name__}: {exc}")
                break
            if digests(pipe_dir) != expected:
                problems.append(f"{path.name}: pipeline artifacts differ from qoechain run")
                break
    return problems


def measure_rss(
    sweep: list[Scenario], long_run: Scenario | None, out_root: Path
) -> tuple[float, dict]:
    """Peak RSS in MB of a fresh process that runs the whole sweep once,
    then the workload's long-horizon scenario, if it has one.

    Its artifacts count as one more run of each sweep file. The
    long-horizon scenario runs only here: its outputs are checked, and its
    digests become its reference. Also returns the child's baseline and its
    peak after each file, in MB.
    """
    checked = sweep + ([long_run] if long_run else [])
    args = [sys.executable, str(BENCH_DIR / "rss_child.py"), str(SRC), str(out_root)]
    child = subprocess.run(
        args + [str(item.path) for item in checked],
        capture_output=True,
        text=True,
        timeout=150,
        check=False,
    )
    try:
        if child.returncode != 0:
            raise ValueError(f"exited {child.returncode}: {child.stderr[-300:]}")
        result = json.loads(child.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        for item in checked:
            item.record(None, f"peak-memory child: {exc}")
        return 0.0, {}
    files = result["files"]
    for item in sweep:
        item.record(files[item.path.name]["digests"])
    if long_run is not None:
        long_run.attempted += 1
        try:
            long_run.facts = check_outputs(out_root / long_run.path.stem)
            long_run.reference = files[long_run.path.name]["digests"]
        except (OSError, ValueError, KeyError) as exc:
            long_run.failures.append(f"{long_run.path.name}: {type(exc).__name__}: {exc}")
    memory = {
        "baseline_mb": result["baseline_kb"] / 1024.0,
        "after_file_mb": {name: entry["maxrss_kb"] / 1024.0 for name, entry in files.items()},
    }
    return result["maxrss_kb"] / 1024.0, memory


def mean_sum(per_file: list[list[float]]) -> float:
    """Sum over the sweep of each file's mean; 0.0 if a file has none."""
    if not all(per_file):
        return 0.0
    return sum(statistics.fmean(times) for times in per_file)


def end_to_end(
    sweep: list[Scenario], long_run: Scenario | None, seconds: float, out_root: Path
) -> tuple[dict, dict]:
    """End-to-end metrics, with tracing off, and their sample counts."""
    rss_mb, memory = measure_rss(sweep, long_run, out_root / "rss")
    # One round loads, runs and writes every file, so each metric samples the
    # whole run rather than one stretch of it.
    (load_times, sim_times, write_times), gauges = rounds(
        sweep, seconds, [(Scenario.timed_load, 5), (Scenario.timed_run, 1), (Scenario.timed_write, 1)]
    )
    scale = speed_scale(gauges)
    sim_s = mean_sum(sim_times) * scale
    events = sum(sum(item.events.values()) for item in sweep)
    metrics = {
        "sim_s": sim_s,
        "events_per_s": events / sim_s if sim_s else 0.0,
        "setup_s": mean_sum(load_times) * scale,
        "write_s": mean_sum(write_times) * scale,
        "peak_rss_mb": rss_mb,
    }
    samples = {
        "files": len(sweep),
        "loads_per_file": min(map(len, load_times)),
        "sim_runs_per_file": min(map(len, sim_times)),
        "writes_per_file": min(map(len, write_times)),
        "gauge_runs": len(gauges),
        "gauge_mean_s": statistics.fmean(gauges),
        "peak_rss": memory,
        "wall_clock_s": {
            "setup_s": mean_sum(load_times),
            "sim_s": mean_sum(sim_times),
            "write_s": mean_sum(write_times),
        },
    }
    return metrics, samples


def rounds(sweep: list[Scenario], seconds: float, steps) -> tuple[list, list[float]]:
    """Wall-clock timings from rounds over the sweep for about `seconds`.

    ``steps`` holds (measure, repeat) pairs, run in order on each file in
    each round. Returns, per step, the timings of each file, and the gauge
    times taken between files. At least MIN_ROUNDS rounds run; a
    measurement that returns None (a failed run) is left out.
    """
    times = [[[] for _ in sweep] for _ in steps]
    gauges = [gauge()]
    deadline = time.perf_counter() + seconds
    completed = 0
    while completed < MIN_ROUNDS or time.perf_counter() < deadline:
        for index, item in enumerate(sweep):
            for per_step, (measure, repeat) in zip(times, steps):
                for _ in range(repeat):
                    elapsed = measure(item)
                    if elapsed is not None:
                        per_step[index].append(elapsed)
            gauges.append(gauge())
        completed += 1
    return times, gauges


def speed_scale(gauges: list[float]) -> float:
    """Factor from this machine's seconds, right now, to reference seconds.

    The machine's speed swings between a fast and a slow state every few
    seconds, as a fixed job (gauge) run between files shows; the factor
    takes the swings out of reported times, so runs made minutes apart
    compare. Gauge and timed work both take means, not medians: the share of
    time spent in each state varies from run to run, and a mean weighs it on
    both sides alike, where a median jumps from one state to the other.
    """
    return GAUGE_REF_S / statistics.fmean(gauges)


def per_layer(sweep: list[Scenario], seconds: float, out_root: Path) -> tuple[dict, dict]:
    """Per-layer metrics from traced sweeps, medians over traced rounds.

    Each file runs untraced and then traced, back to back, so the tracing
    overhead compares two runs made at the same machine speed.
    """
    from tracer import Tracer

    traced: list[dict[str, float]] = []
    overheads: list[float] = []
    gauges = [gauge()]
    tracer = None
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        tracer = Tracer()
        pairs = []
        for item in sweep:
            untraced_s = item.timed_run()
            with tracer:
                traced_s = item.traced_run()
            gauges.append(gauge())
            if untraced_s is None or traced_s is None:
                break
            pairs.append(traced_s / untraced_s)
        if len(pairs) < len(sweep):
            break
        overheads += pairs
        traced.append(layer_metrics(tracer, sweep))
    if tracer is not None:
        tracer.write(out_root / "spans.csv")
    merged = {}
    if traced:
        scale = speed_scale(gauges)
        for name in traced[0]:
            value = statistics.median_low(item[name] for item in traced)
            merged[name] = value * scale if name.endswith(TIME_SUFFIXES) else value
        merged["trace.overhead_ratio"] = statistics.median(overheads)
    samples = {
        "files": len(sweep),
        "traced_rounds": len(traced),
        "overhead_pairs": len(overheads),
        "gauge_mean_s": statistics.fmean(gauges),
    }
    return merged, samples


def layer_metrics(tracer, sweep: list[Scenario]) -> dict[str, float]:
    """Per-layer metrics of one traced pass over the sweep, in wall time."""
    totals = tracer.self_times()
    outcomes = tracer.outcomes

    def calls(*names):
        return sum(totals.get(name, (0, 0))[0] for name in names)

    def self_s(*names):
        return sum(totals.get(name, (0, 0))[1] for name in names) / 1e9

    def inclusive_s(*names):
        return sum(sum(tracer.durations_ns(name)) for name in names) / 1e9

    def ratio(part, whole):
        return part / whole if whole else 0.0

    sfp = "routing.shortest_feasible_path"
    admit = "controller.admit"
    repairs = ("controller.handle_breach", "controller.handle_host_failure")
    writes = ("network.reserve", "network.release", "network.fail_host", "network.degrade_link")
    orchestration = (
        "orchestrator.submit_request",
        "orchestrator.complete_request",
        "orchestrator.apply_action",
    )
    plans = calls(admit, *repairs)
    repaired = sum(
        n
        for (name, label), n in outcomes.items()
        if name in repairs and label in ("action.Rerouted", "action.Migrated")
    )
    admit_us = sorted(d / 1e3 for d in tracer.durations_ns(admit))
    samples = outcomes[("controller.monitor_window", "sample")]
    events = Counter()
    for item in sweep:
        events.update(item.events)
    facts = [item.facts or {"rows": 0, "bytes": 0} for item in sweep]

    metrics = {
        "routing.sfp.calls": calls(sfp),
        "routing.sfp.self_s": self_s(sfp),
        "routing.sfp.found_ratio": ratio(outcomes[(sfp, "found")], calls(sfp)),
        "routing.sfp.calls_per_plan": ratio(calls(sfp), plans),
        "controller.admit.calls": calls(admit),
        "controller.admit.self_s": self_s(admit),
        "controller.admit.p50_us": percentile(admit_us, 0.50),
        "controller.admit.p99_us": percentile(admit_us, 0.99),
        "controller.admit.accept_ratio": ratio(outcomes[(admit, "accepted")], calls(admit)),
        "controller.monitor.calls": calls("controller.monitor_window"),
        "controller.monitor.self_s": self_s("controller.monitor_window"),
        "controller.monitor.samples": samples,
        "controller.monitor.us_per_sample": ratio(
            inclusive_s("controller.monitor_window") * 1e6, samples
        ),
        "qoe.estimate.calls": calls("qoe.estimate_mos"),
        "qoe.estimate.self_s": self_s("qoe.estimate_mos"),
        "qoe.predict.calls": calls("qoe.predict_mos"),
        "qoe.predict.self_s": self_s("qoe.predict_mos"),
        "service.path_metrics.calls": calls("service.path_metrics"),
        "service.path_metrics.self_s": self_s("service.path_metrics"),
        "controller.repair.calls": calls(*repairs),
        "controller.repair.self_s": self_s(*repairs),
        "controller.repair.success_ratio": ratio(repaired, calls(*repairs)),
        "network.write.calls": calls(*writes),
        "network.write.self_s": self_s(*writes),
        "orchestrator.self_s": self_s(*orchestration),
        "kernel.self_s": self_s("kernel.run"),
        "kernel.audit_s": inclusive_s("kernel.audit_conservation", "kernel.audit_lifecycle"),
        "kernel.events": sum(events.values()),
        "scenario.load_s": inclusive_s("scenario.load_scenario"),
        "scenario.bytes": sum(item.path.stat().st_size for item in sweep),
        "report.write_s": inclusive_s("report.write_report"),
        "report.rows": sum(fact["rows"] for fact in facts),
        "report.bytes": sum(fact["bytes"] for fact in facts),
    }
    for reason in ("NoHost", "NoPath", "QoeBelowTarget"):
        metrics[f"controller.admit.reject.{reason}"] = outcomes[(admit, f"reject.{reason}")]
    for kind in EVENT_TYPES:
        metrics[f"kernel.events.{kind}"] = events[kind]
    return metrics


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0.0 when empty."""
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    environment = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
    }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {item["name"] for item in spec["workloads"]}:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    qc = load_program()
    sys.path.insert(0, str(BENCH_DIR))
    import gen

    out_root = ROOT / ".bench_out" / f"{args.workload}-{args.seed}"
    out_root.mkdir(parents=True, exist_ok=True)
    smoke_problems = smoke_bundled(qc, out_root / "smoke")
    sweep = []
    for index in range(gen.WORKLOADS[args.workload]["sweep"]):
        path = out_root / f"scenario-{index}.json"
        path.write_bytes(gen.render(args.workload, args.seed, index))
        sweep.append(Scenario(qc, path, out_root / f"run-{index}"))
        sweep[-1].prepare()

    long_run = None
    if not args.trace and args.workload in gen.LONG_HORIZON:
        path = out_root / "long-horizon.json"
        path.write_bytes(gen.render(args.workload, args.seed, "long"))
        long_run = Scenario(qc, path, out_root / "rss" / path.stem)
    checked = sweep + ([long_run] if long_run else [])

    if not all(item.reference for item in sweep):
        metrics, samples = {}, {}
    elif args.trace:
        metrics, samples = per_layer(sweep, args.seconds, out_root)
    else:
        metrics, samples = end_to_end(sweep, long_run, args.seconds, out_root)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result_metrics = {
        item["name"]: {"value": metrics.get(item["name"], 0.0), "unit": item["unit"]}
        for item in wanted
    }
    failures = smoke_problems + [text for item in checked for text in item.failures]
    missing = [name for name in result_metrics if name not in metrics]
    if missing:
        failures.append(f"metrics not measured: {', '.join(missing)}")
    attempted = sum(item.attempted for item in checked)
    failed = sum(len(item.failures) for item in checked)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "generator": {
            **gen.WORKLOADS[args.workload],
            "long_horizon": gen.LONG_HORIZON.get(args.workload),
        },
        "files": [
            {
                "name": item.path.name,
                "sha256": sha256(item.path),
                "bytes": item.path.stat().st_size,
                "simulated": {**(item.facts or {}), "events": dict(sorted(item.events.items()))},
                "artifact_sha256": item.reference,
            }
            for item in checked
        ],
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": failures,
        "metrics": result_metrics,
        "layer_targets": LAYER_TARGETS,
    }
    (out_root / f"result-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    print(f"environment {json.dumps(environment, sort_keys=True)}")
    for entry in record["files"]:
        print(f"file {entry['name']} sha256={entry['sha256']} bytes={entry['bytes']}")
        print(f"  simulated {json.dumps(entry['simulated'], sort_keys=True)}")
        print(f"  artifacts {json.dumps(entry['artifact_sha256'], sort_keys=True)}")
    for text in failures:
        print(f"FAILED {text}")
    for name, item in result_metrics.items():
        print(f"{name} = {item['value']:.6g} {item['unit']}")
    print(f"failed_ratio = {record['failed_ratio']:.6g} ({failed} of {attempted} runs failed)")
    print(f"samples {json.dumps(samples, sort_keys=True)}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
