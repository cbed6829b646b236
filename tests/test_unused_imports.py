"""Every name a module imports is used in it.

The scan is static: it parses each source file with ast, collects the
names its import statements bind, and reports those that no expression in
the file reads. Names listed in a module's ``__all__`` count as used, since
re-exporting them is why they are imported, and so do names read inside a
quoted annotation.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted(
    [*ROOT.glob("src/qoechain/*.py"), *ROOT.glob("tests/*.py"), *ROOT.glob("bench/*.py")]
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    annotations: list[ast.expr | None] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    for annotation in annotations:
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            quoted = ast.parse(annotation.value, mode="eval")
            used.update(node.id for node in ast.walk(quoted) if isinstance(node, ast.Name))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_scan_sees_an_unused_import():
    source = (
        "import os\nimport sys\nfrom json import dumps, loads\nfrom io import StringIO\n"
        "__all__ = ['loads']\ndef f(x: 'StringIO'): sys.exit(dumps)\n"
    )
    assert unused_imports(source) == ["line 1: os"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
