"""Command line front end.

Exit codes: 0 on success, 1 for bad input or usage, 2 when an internal
invariant trips (a bug in the simulator, not in the scenario).
"""

from __future__ import annotations

import argparse
import json
import sys

from .controller import Controller, OracleLimits
from .errors import InvariantViolation, SimulatorError
from .kernel import run as run_scenario
from .network import build_network
from .report import read_series, read_summary, write_report
from .scenario import load_scenario
from .service import ServiceCatalog

USAGE_EXIT = 1
INTERNAL_EXIT = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; this tool reserves 2 for bugs."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"ERROR args: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qoechain", description="QoE-managed chain simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="execute a scenario and write reports")
    run_cmd.add_argument("scenario", help="path to a scenario JSON file")
    run_cmd.add_argument("--out", required=True, help="output directory")
    run_cmd.add_argument("--seed", type=int, default=None, help="override seed")
    run_cmd.add_argument(
        "--alpha", type=float, default=None, help="override smoothing factor"
    )
    run_cmd.add_argument(
        "--strict-debug",
        action="store_true",
        help="audit global invariants after every event",
    )

    validate_cmd = sub.add_parser("validate", help="check a scenario file")
    validate_cmd.add_argument("scenario", help="path to a scenario JSON file")

    oracle_cmd = sub.add_parser(
        "oracle", help="exhaustive optimal embedding for one request"
    )
    oracle_cmd.add_argument("scenario", help="path to a scenario JSON file")
    oracle_cmd.add_argument(
        "--request",
        type=int,
        default=None,
        help="request id (defaults to the first declared request)",
    )

    report_cmd = sub.add_parser("report", help="summarize a finished run directory")
    report_cmd.add_argument("out", help="directory previously written by run")
    return parser


def _load(path: str):
    """The scenario at path, or None once each diagnostic is printed."""
    doc, diagnostics = load_scenario(path)
    for diagnostic in diagnostics:
        print(f"ERROR {diagnostic.path}: {diagnostic.message}", file=sys.stderr)
    return doc


def _counters_line(counters: dict) -> str:
    """The run totals as `run` and `report` print them."""
    return (
        f"admitted={counters['admitted']} rejected={counters['rejected_total']} "
        f"completed={counters['completed']} failed={counters['failed']} "
        f"rerouted={counters['rerouted']} migrated={counters['migrated']}"
    )


def _cmd_run(args) -> int:
    doc = _load(args.scenario)
    if doc is None:
        return USAGE_EXIT
    report = run_scenario(
        doc, seed=args.seed, alpha=args.alpha, strict_debug=args.strict_debug
    )
    paths = write_report(report, args.out)
    print(f"{doc.name}: {report.windows} windows, {_counters_line(report.counters)}")
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_validate(args) -> int:
    doc = _load(args.scenario)
    if doc is None:
        return USAGE_EXIT
    print(
        f"{doc.name}: ok ({len(doc.nodes)} nodes, {len(doc.links)} links, "
        f"{len(doc.requests)} requests)"
    )
    return 0


def _cmd_oracle(args) -> int:
    doc = _load(args.scenario)
    if doc is None:
        return USAGE_EXIT
    if not doc.requests:
        print("ERROR workload.requests: scenario declares no requests", file=sys.stderr)
        return USAGE_EXIT
    if args.request is None:
        request = doc.requests[0]
    else:
        matches = [item for item in doc.requests if item.id == args.request]
        if not matches:
            print(
                f"ERROR workload.requests: no request with id {args.request}",
                file=sys.stderr,
            )
            return USAGE_EXIT
        request = matches[0]
    state = build_network(doc.nodes, doc.links)
    catalog = ServiceCatalog(doc.vnf_types, doc.profiles)
    controller = Controller(state, catalog, doc.ela, doc.policy)
    result = controller.exact_embed(request, OracleLimits())
    if result is None:
        print(json.dumps({"request": request.id, "feasible": False}, sort_keys=True))
        return 0
    latency = controller.graph_latency(result, request)
    print(
        json.dumps(
            {
                "request": request.id,
                "placements": [
                    {"vnf": name, "host": host} for name, host in result.placements
                ],
                "segments": [list(segment) for segment in result.segments],
                "total_latency_ms": latency,
            },
            sort_keys=True,
        )
    )
    return 0


def _cmd_report(args) -> int:
    summary = read_summary(args.out)
    series = read_series(args.out)
    print(f"scenario {summary['scenario']} seed {summary['seed']}")
    print(f"windows={summary['windows']} {_counters_line(summary['counters'])}")
    for flow_id in sorted(summary["flows"], key=int):
        flow = summary["flows"][flow_id]
        if flow["compliance"] is None:
            compliance = "n/a"
        else:
            compliance = f"{flow['compliance']:.3f}"
        print(
            f"flow {flow_id}: {flow['final_status']} "
            f"windows={flow['windows_observed']} compliance={compliance} "
            f"breaches={len(flow['breach_windows'])}"
        )
    print(f"series rows: {len(series)}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "validate": _cmd_validate,
        "oracle": _cmd_oracle,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except InvariantViolation as exc:
        print(f"INTERNAL {exc}", file=sys.stderr)
        return INTERNAL_EXIT
    except SimulatorError as exc:
        print(f"ERROR input: {exc}", file=sys.stderr)
        return USAGE_EXIT


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
