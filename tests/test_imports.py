"""Lint: no module of the package imports a name it never uses, the
package imports exactly the third-party packages it declares, every
top-level function and class of the package is used by the package, its
scripts or its benchmark, and so is every dataclass field (read as an
attribute).

Uses only the stdlib ``ast`` module, so it runs wherever the test suite does.
A name counts as used when it appears as a bare name anywhere in the module
(including attribute bases such as ``np`` in ``np.zeros`` and unquoted
annotations) or inside a quoted annotation; other strings do not count.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qgamma"
MODULES = sorted(SRC.glob("*.py"))
CALLERS = [*MODULES, *sorted((ROOT / "scripts").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py"))]
# paper content that only the tests call: Gamma II central charges, the
# wedge MRS and the HRR Euler pairing
TEST_ONLY_PAPER_CONTENT = {"central_charge", "wedge_mrs", "euler_pairing_hrr"}


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")   # quoted annotation
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return used


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = _used_names(tree)
    return [(line, name) for line, name in _imported_names(tree) if name not in used]


def test_checker_flags_unused_and_accepts_used():
    src = "import os\nimport numpy as np\nfrom math import pi, tau\nx = np.zeros(pi)\n"
    assert unused_imports(src) == [(1, "os"), (3, "tau")]
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("from a import B\ndef f() -> 'B': pass\n") == []
    assert unused_imports("from a import B\nx = 'B'\n") == [(1, "B")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _third_party_imports(source: str) -> set:
    """Top-level names of absolute imports outside the standard library."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__"}


def test_imports_match_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in project["dependencies"]}
    imported = set().union(*(_third_party_imports(p.read_text()) for p in MODULES))
    assert imported == declared == {"numpy", "mpmath"}


def _references(tree) -> set:
    """Names read as a bare name or an attribute anywhere in the module,
    except a top-level definition's reads of itself."""
    refs = set()
    for top in tree.body:
        names = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(top)
                 if isinstance(node, (ast.Name, ast.Attribute))
                 and isinstance(node.ctx, ast.Load)}
        names.discard(getattr(top, "name", None))
        refs |= names
    return refs


def _definitions(tree) -> list:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def test_reference_checker():
    tree = ast.parse("def f(n):\n    return f(n - 1)\nclass C:\n    g = h.k\nx = C()\n")
    assert _definitions(tree) == ["f", "C"]
    assert _references(tree) == {"n", "h", "k", "C"}


def test_every_definition_is_referenced():
    refs = set().union(*(_references(ast.parse(p.read_text())) for p in CALLERS))
    defined = {name: path.name for path in MODULES
               for name in _definitions(ast.parse(path.read_text()))}
    assert TEST_ONLY_PAPER_CONTENT <= defined.keys()
    unreferenced = sorted(f"{module}: {name}" for name, module in defined.items()
                          if name not in refs | TEST_ONLY_PAPER_CONTENT)
    assert unreferenced == []


# paper content kept in a report although no caller reads it: the inverse
# series U of the fundamental solution
UNREAD_PAPER_FIELDS = {"FundamentalSolution.U"}


def _is_dataclass(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Name) and target.id == "dataclass"


def _dataclass_fields(tree) -> list:
    """"Class.field" for each annotated field of a top-level @dataclass."""
    return [f"{node.name}.{stmt.target.id}" for node in tree.body
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list))
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]


def _attribute_reads(tree) -> set:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_field_checker():
    tree = ast.parse("@dataclass\nclass A:\n    x: int\n    y: int = 0\n"
                     "@dataclass(frozen=True)\nclass B:\n    z: int\n"
                     "class C:\n    w: int\n"
                     "def f(a, b):\n    a.y = 1\n    return b.z\n")
    assert _dataclass_fields(tree) == ["A.x", "A.y", "B.z"]
    assert _attribute_reads(tree) == {"z"}


def test_every_dataclass_field_is_read():
    reads = set().union(*(_attribute_reads(ast.parse(p.read_text())) for p in CALLERS))
    fields = [f for p in MODULES for f in _dataclass_fields(ast.parse(p.read_text()))]
    assert UNREAD_PAPER_FIELDS <= set(fields)
    unread = sorted(f for f in fields
                    if f.split(".")[1] not in reads and f not in UNREAD_PAPER_FIELDS)
    assert unread == []
