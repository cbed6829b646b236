"""What a simulation run calls, watched with sys.setprofile.

The run-path modules (network.py, service.py, qoe.py, routing.py,
controller.py, orchestrator.py and kernel.py) hold only code that a run
executes, and the exhaustive oracle in oracle.py is never part of a run.
The runs parse and run the bundled scenarios, the one-fault-of-each-kind
document and feedback_reroute with its spare link degraded too, which
between them reach every fault handler and both repair stages; parsing
builds the policy, whose validator lives in controller.py.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import replace
from pathlib import Path

from qoechain import parse_scenario, run
from qoechain.scenario import LinkDegradation

from generators import SCENARIOS, one_fault_of_each_kind

PACKAGE = Path(__file__).parent.parent / "src" / "qoechain"
RUN_PATH = (
    "network.py",
    "service.py",
    "qoe.py",
    "routing.py",
    "controller.py",
    "orchestrator.py",
    "kernel.py",
)


def defined(module: str) -> set[tuple[str, int]]:
    """(name, first line) of every function in module, as its code object has them."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    return {
        (node.name, min([node.lineno] + [d.lineno for d in node.decorator_list]))
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def run_everything() -> None:
    """Parse and run each bundled scenario, then the fault document.

    Last comes feedback_reroute with both of its links degraded: no new
    segment helps, so the breach escalates to the re-embed, which shuns the
    worst link.
    """
    docs = {}
    for path in sorted(SCENARIOS.glob("*.json")):
        doc, diagnostics = parse_scenario(path.read_text())
        assert diagnostics == [], (path.name, diagnostics)
        run(doc)
        docs[path.stem] = doc
    run(one_fault_of_each_kind())
    feedback = docs["feedback_reroute"]
    spare = LinkDegradation(time_ms=2500, link=1, latency_ms=300.0)
    run(replace(feedback, link_degradations=(*feedback.link_degradations, spare)))


def called_by(work) -> dict[str, set[tuple[str, int]]]:
    """Per module file name of the package, the functions work() called."""
    seen: set[tuple[str, str, int]] = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_name, code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        work()
    finally:
        sys.setprofile(previous)
    package = PACKAGE.resolve()
    called: dict[str, set[tuple[str, int]]] = {}
    for filename, name, line in seen:
        path = Path(filename).resolve()
        if path.parent == package:
            called.setdefault(path.name, set()).add((name, line))
    return called


def test_runs_call_all_of_the_run_path_and_none_of_the_oracle():
    called = called_by(run_everything)
    assert sorted(called.get("oracle.py", set())) == []
    for module in RUN_PATH:
        assert sorted(defined(module) - called.get(module, set())) == [], module
