"""Every name a module imports is used in it, and every definition is read.

Both scans are static: they parse each source file with ast. The import
scan collects the names a file's import statements bind and reports those
that no expression in the file reads. Names listed in a module's
``__all__`` count as used, since re-exporting them is why they are
imported, and so do names read inside a quoted annotation.

The definition scan reports each function, method or class defined in
``src/qoechain`` whose name no expression in ``src/qoechain`` outside its
own body reads, as a bare name, as an attribute or by importing it under
another name, unless ``PUBLIC`` gives the reason. Being listed in an
``__all__`` is no reason: an export the simulator never reads is code it
does not use at run time. Names are matched without resolving types, so a
read of any attribute with the same name counts; dunder methods are called
by the language and are never reported. Because of that, a method name that two or more classes define
is reported too, unless ``SHARED`` gives the reason: a read of one such
method would hide that the other has lost its callers.

The error scan reports each exception class defined in ``errors.py`` that
no ``except`` clause in ``src/qoechain`` names: a class nothing catches
is a distinction no caller makes, so it is raised as the class it derives
from instead.
"""

from __future__ import annotations

import ast
from collections import Counter, defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
PACKAGE = sorted(ROOT.glob("src/qoechain/*.py"))
SOURCES = sorted([*PACKAGE, *ROOT.glob("tests/*.py"), *ROOT.glob("bench/*.py")])

# Definitions that no package code reads but that are kept, and why.
PUBLIC: dict[str, str] = {}

# Method names that two or more package classes define, and why.
SHARED = {
    "error": "_Parser overrides argparse's error; _Ctx records a diagnostic",
}


def quoted_annotation_names(tree: ast.AST) -> list[str]:
    """Names read inside string annotations, which ast keeps as constants."""
    annotations: list[ast.expr | None] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    names = []
    for annotation in annotations:
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            quoted = ast.parse(annotation.value, mode="eval")
            names.extend(node.id for node in ast.walk(quoted) if isinstance(node, ast.Name))
    return names


def exported(tree: ast.AST) -> list[str]:
    """The names an ``__all__`` assignment in tree lists."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names.extend(ast.literal_eval(node.value))
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set(exported(tree)) | set(quoted_annotation_names(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def reads(tree: ast.AST) -> Counter:
    """How often each name is read in tree, as a name or as an attribute."""
    counts: Counter = Counter(quoted_annotation_names(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            counts[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            # Binding a definition to a new name reads it; the import scan
            # checks that the new name is read in turn.
            counts.update(alias.name for alias in node.names if alias.asname)
    return counts


def definitions(tree: ast.AST, prefix: str = ""):
    """(qualified name, node) of every function, method and class in tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node
            yield from definitions(node, prefix + node.name + ".")
        else:
            yield from definitions(node, prefix)


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def method_owners(trees: list[ast.AST]) -> dict[str, list[str]]:
    """The classes defining each method name, dunders left out."""
    owners: defaultdict[str, list[str]] = defaultdict(list)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if not is_dunder(item.name):
                            owners[item.name].append(node.name)
    return owners


def unused_definitions(sources: list[str], shared=(), public=()) -> list[str]:
    """Definitions no other code reads and not in public, then method names
    shared but not in shared."""
    trees = [ast.parse(source) for source in sources]
    total: Counter = sum((reads(tree) for tree in trees), Counter())
    unused = []
    for tree in trees:
        for qualified, node in definitions(tree):
            name = node.name
            if is_dunder(name) or name in public:
                continue
            if total[name] <= reads(node)[name]:
                unused.append(qualified)
    for name, classes in method_owners(trees).items():
        if len(classes) > 1 and name not in shared:
            unused.append(f"{name} defined by {', '.join(classes)}")
    return unused


def caught(tree: ast.AST) -> set[str]:
    """Names the except clauses in tree catch, alone or in a tuple."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            for each in types:
                if isinstance(each, ast.Name):
                    names.add(each.id)
                elif isinstance(each, ast.Attribute):
                    names.add(each.attr)
    return names


def uncaught_errors(errors: str, sources: list[str]) -> list[str]:
    """Classes defined in the errors source that no except clause in sources names."""
    defined = [node.name for node in ast.walk(ast.parse(errors)) if isinstance(node, ast.ClassDef)]
    names = set().union(*(caught(ast.parse(source)) for source in sources))
    return [name for name in defined if name not in names]


def test_the_scan_sees_an_unused_import():
    source = (
        "import os\nimport sys\nfrom json import dumps, loads\nfrom io import StringIO\n"
        "__all__ = ['loads']\ndef f(x: 'StringIO'): sys.exit(dumps)\n"
    )
    assert unused_imports(source) == ["line 1: os"]


def test_the_scan_sees_an_unused_definition():
    sources = [
        "__all__ = ['api']\ndef api(): return Box().open() + helper(1)\n"
        "def helper(x): return x\ndef loop(n): return loop(n - 1)\n",
        "class Box:\n    def __init__(self): self.shut = 0\n"
        "    def open(self): return 1\n    def close(self): return Box()\n"
        "class Hidden:\n    def method(self): return Hidden\n"
        "def annotated(x: 'Quoted'): return x\nclass Quoted: pass\n",
    ]
    assert unused_definitions(sources, public={"api"}) == [
        "loop", "Box.close", "Hidden", "Hidden.method", "annotated"
    ]


def test_the_scan_sees_a_method_name_two_classes_define():
    # Bag.open has no caller, but the read of Box.open hides that.
    sources = [
        "__all__ = ['api']\ndef api(): return Box().open() + Bag().close()\n",
        "class Box:\n    def open(self): return 1\n"
        "class Bag:\n    def open(self): return 2\n    def close(self): return 3\n",
    ]
    assert unused_definitions(sources, public={"api"}) == ["open defined by Box, Bag"]
    assert unused_definitions(sources, shared={"open"}, public={"api"}) == []


def test_the_scan_sees_an_export_nothing_reads():
    # Being in __all__ exempts nothing: spare is reported until public names
    # it. run is read through the name it is imported under.
    sources = [
        "__all__ = ['api', 'spare']\nfrom impl import run as go\n"
        "def api(): return go()\ndef spare(): return 2\n",
        "def run(): return api()\n",
    ]
    assert unused_definitions(sources) == ["spare"]
    assert unused_definitions(sources, public={"spare"}) == []


def test_the_scan_sees_an_error_class_nothing_catches():
    errors = "class Base(Exception): pass\nclass Odd(Base): pass\nclass Rare(Base): pass\n"
    sources = [
        "try:\n    f()\nexcept (errors.Odd, KeyError):\n    pass\n",
        "try:\n    g()\nexcept Base as exc:\n    raise\nexcept:\n    pass\n",
    ]
    assert uncaught_errors(errors, sources) == ["Rare"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_definition_in_the_package_is_read():
    sources = [path.read_text(encoding="utf-8") for path in PACKAGE]
    assert unused_definitions(sources, SHARED, PUBLIC) == []


def test_every_public_definition_is_still_unread():
    sources = [path.read_text(encoding="utf-8") for path in PACKAGE]
    assert sorted(unused_definitions(sources, SHARED)) == sorted(PUBLIC)


def test_every_shared_method_name_is_still_shared():
    owners = method_owners([ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE])
    assert {name: owners[name] for name in SHARED if len(owners[name]) < 2} == {}


def test_every_error_class_is_caught_somewhere():
    errors = (ROOT / "src/qoechain/errors.py").read_text(encoding="utf-8")
    sources = [path.read_text(encoding="utf-8") for path in PACKAGE]
    assert uncaught_errors(errors, sources) == []
