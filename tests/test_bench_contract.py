"""What the benchmark in bench/ relies on in the program, checked statically.

bench/tracer.py wraps the entry points its ENTRY_POINTS table names, and
bench/run_bench.py counts dispatched events by the class names in its
EVENT_TYPES. A rename in the program would break a traced benchmark run
without failing any other test; these tests read both tables with ast, so
importing nothing from bench/.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

from qoechain import run

from generators import one_fault_of_each_kind

ROOT = Path(__file__).parent.parent


def bench_constant(file_name: str, name: str):
    """The literal value a module-level assignment in bench/ gives name."""
    tree = ast.parse((ROOT / "bench" / file_name).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"bench/{file_name} assigns no {name}")


def test_every_traced_entry_point_resolves():
    missing = []
    for span, module_name, path in bench_constant("tracer.py", "ENTRY_POINTS"):
        # As Tracer.__enter__ does: getattr down to the owner, then its own __dict__.
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append(f"{span}: {module_name}.{path}")
    assert missing == []


def test_one_fault_of_each_kind_dispatches_every_counted_event_type():
    dispatched = set()
    run(one_fault_of_each_kind(), event_hook=lambda event, state: dispatched.add(type(event).__name__))
    assert dispatched == set(bench_constant("run_bench.py", "EVENT_TYPES"))
