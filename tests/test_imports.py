"""Lint: no module of the package imports a name it never uses or a
private name of another module of the package, the
package imports exactly the third-party packages it declares, numpy only
inside the float routines that need it (never at module level), mpmath's
raw libmp arithmetic only in asympt (isprime anywhere), every
top-level function and class of the package is reachable through a chain
of reads from ``cli.main``, the package's module-level statements or its
scripts (the names only the benchmark reaches are listed explicitly),
every dataclass field is read as an attribute, every parameter default
is overridden by some call in the package, its scripts or the benchmark,
every ``raise`` names an exception class that the CLI maps to an exit
code, and every package name the benchmark reads (attributes of the modules
it imports, and the ``(module, "name")`` pairs it patches) is defined.

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
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))
CALLERS = [*MODULES, *SCRIPTS, *BENCHMARK]
# paper content that only the tests call: Gamma II central charges and the
# HRR Euler pairing
TEST_ONLY_PAPER_CONTENT = {"central_charge", "euler_pairing_hrr"}
# code that only the benchmark reaches: its probe replays the Schur products
# that build_ring no longer makes (Schur polynomials, their products and
# bialternant expansions; the Grassmannian closed-form Gamma class reads
# determinants of one-variable series instead), and its rotate and p2_gram
# bodies call the pairing-callable systems that the integer layer no longer
# needs
BENCHMARK_ONLY = {"schur_poly", "ssyt_monomials", "poly_mul", "schur_expand", "vandermonde",
                  "perm_sign", "SOB", "gram", "mutate_phase_rotation"}


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


def private_imports(source: str) -> list:
    """(line, name) of each underscore name imported from a module of the
    package, by a relative import or one from qgamma."""
    return [(node.lineno, alias.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level or node.module.split(".")[0] == "qgamma")
            for alias in node.names if alias.name.startswith("_")]


def test_private_import_checker():
    src = ("from __future__ import annotations\nfrom .rings import cup, _same\n"
           "from qgamma.connection import _c1\nfrom os import _exit\n"
           "from . import _mod\nimport qgamma\nfrom qgamma import rings\n")
    assert private_imports(src) == [(2, "_same"), (3, "_c1"), (5, "_mod")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    assert private_imports(path.read_text()) == []


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


# the float routines, the only functions that import numpy: the Mellin
# quadrature nodes and the benchmark's complex Gram (the float J recursion
# and its sum run on Python lists, criterion 9's random Grams on the stdlib)
NUMPY_FUNCTIONS = {"_leggauss", "_gamma_nodes", "gram"}


def numpy_imports(source: str) -> list:
    """(the enclosing top-level function, or None outside one; line) for each
    absolute import of numpy or of a numpy submodule."""
    out = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                out.append((owner, node.lineno))
    return out


def test_numpy_import_checker():
    src = ("import numpy as np\nimport os\ndef f():\n    import numpy.linalg\n"
           "class C:\n    def g(self):\n        from numpy import eye\n"
           "def h():\n    from .numpy import x\n    import numpyro\n")
    assert numpy_imports(src) == [(None, 1), ("f", 4), (None, 7)]


def test_numpy_is_imported_only_by_the_float_routines():
    found = [(path.name, owner, line) for path in MODULES
             for owner, line in numpy_imports(path.read_text())]
    assert [f for f in found if f[1] not in NUMPY_FUNCTIONS] == []
    assert {owner for _, owner, _ in found} == NUMPY_FUNCTIONS


def libmp_imports(source: str) -> list:
    """(line, name) for each name other than isprime imported from
    mpmath.libmp or a submodule, and each import of mpmath.libmp itself."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[:2] == ["mpmath", "libmp"]:
                out += [(node.lineno, a.name) for a in node.names if a.name != "isprime"]
            elif node.module == "mpmath":
                out += [(node.lineno, a.name) for a in node.names if a.name == "libmp"]
        elif isinstance(node, ast.Import):
            out += [(node.lineno, a.name) for a in node.names
                    if a.name.split(".")[:2] == ["mpmath", "libmp"]]
    return out


def test_libmp_import_checker():
    src = ("from mpmath.libmp import isprime, mpf_add\nfrom mpmath import mp, libmp\n"
           "import mpmath.libmp\nfrom mpmath.libmp.libmpf import fzero, isprime\n"
           "import mpmath\nfrom mpmath.libmpx import y\n")
    assert libmp_imports(src) == [(1, "mpf_add"), (2, "libmp"), (3, "mpmath.libmp"),
                                  (4, "fzero")]


def test_raw_mpf_arithmetic_stays_in_the_psi_kernel():
    # the Psi series kernel of asympt sums on raw libmp values; every other
    # module does its mpmath arithmetic on mpf and mpc objects
    found = [path.name for path in MODULES if libmp_imports(path.read_text())]
    assert found == ["asympt.py"]


def _reads(node) -> set:
    """Names read as a bare name or an attribute anywhere under node."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def _definitions(tree) -> list:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _unreachable(package, callers, roots) -> list:
    """Top-level definitions of the package modules that no chain of reads
    reaches from the roots, the package's other module-level statements or
    the caller modules.  Names are matched across modules, so a chain may
    pass through a same-named definition elsewhere; that errs towards used."""
    edges: dict = {}
    seen = set(roots).union(*map(_reads, callers))
    for tree in package:
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                edges.setdefault(top.name, set()).update(_reads(top))
            else:
                seen |= _reads(top)
    todo = list(seen)
    while todo:
        for name in edges.get(todo.pop(), set()) - seen:
            seen.add(name)
            todo.append(name)
    return sorted(set(edges) - seen)


def test_reference_checker():
    tree = ast.parse("def f(n):\n    return f(n - 1)\nclass C:\n    g = h.k\nx = C()\n"
                     "def h():\n    pass\n")
    assert _definitions(tree) == ["f", "C", "h"]
    assert _reads(tree.body[1]) == {"h", "k"}
    # a self-read does not make f used; the statement x = C() reaches C and h
    assert _unreachable([tree], [], set()) == ["f"]
    assert _unreachable([tree], [ast.parse("f(2)")], set()) == []


def test_reference_checker_rejects_a_closed_cycle():
    tree = ast.parse("def f(n):\n    return g(n)\ndef g(n):\n    return f(n - 1)\n"
                     "def main():\n    pass\n")
    assert _unreachable([tree], [], {"main"}) == ["f", "g"]
    assert _unreachable([tree], [], {"main", "g"}) == []


def test_every_definition_is_referenced():
    package = [ast.parse(p.read_text()) for p in MODULES]
    scripts = [ast.parse(p.read_text()) for p in SCRIPTS]
    benchmark = [ast.parse(p.read_text()) for p in BENCHMARK]
    defined = {name: path.name for path, tree in zip(MODULES, package)
               for name in _definitions(tree)}
    assert TEST_ONLY_PAPER_CONTENT | BENCHMARK_ONLY <= defined.keys()
    roots = {"main"} | TEST_ONLY_PAPER_CONTENT
    unreachable = _unreachable(package, scripts, roots)
    assert set(unreachable) == BENCHMARK_ONLY
    assert sorted(f"{defined[name]}: {name}"
                  for name in _unreachable(package, scripts + benchmark, roots)) == []


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
    assert sorted(f for f in fields if f.split(".")[1] not in reads) == []


# a knob that only the tests turn: the abscissa of the Mellin contour, which
# test_psi_contour_independence varies
TEST_ONLY_KNOBS = {("mellin_psi", "c")}


def _call_signatures(trees) -> dict:
    """name -> [(number of positional arguments, keyword names)] for every
    call of a bare name or an attribute; *args counts as every position and
    **kwargs as every keyword (None)."""
    calls: dict = {}
    for node in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Call)):
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        star = any(isinstance(a, ast.Starred) for a in node.args)
        calls.setdefault(name, []).append((float("inf") if star else len(node.args),
                                           {k.arg for k in node.keywords}))
    return calls


def unset_defaults(package, callers) -> list:
    """(function, parameter) for each parameter with a default that no call
    in callers sets, by position or by keyword.  Functions are matched by
    name across modules; a method's self is not counted as a position."""
    calls = _call_signatures(callers)
    out = []
    for tree in package:
        methods = {id(fn) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            knobs = [(i - (id(fn) in methods), p.arg)
                     for i, p in enumerate(positional[first:], first)]
            knobs += [(float("inf"), p.arg) for p, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
            out += [(fn.name, name) for i, name in knobs
                    if not any(n > i or name in kws or None in kws
                               for n, kws in calls.get(fn.name, []))]
    return sorted(out)


def test_unset_default_checker():
    package = ast.parse("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
                        "class C:\n    def m(self, x=0, y=1):\n        pass\n"
                        "def g(a=1):\n    pass\n")
    callers = [ast.parse("f(1, 2)\nf(0, e=5)\nobj.m(1)\ng(*xs)\n")]
    assert unset_defaults([package], callers) == [("f", "c"), ("f", "d"), ("m", "y")]
    assert unset_defaults([package], [ast.parse("f(0, **kw)\nm(0, 1)\ng()\n")]) == [("g", "a")]


def test_every_default_is_set_by_a_caller():
    package = [ast.parse(p.read_text()) for p in MODULES]
    callers = [ast.parse(p.read_text()) for p in CALLERS]
    assert set(unset_defaults(package, callers)) == TEST_ONLY_KNOBS


# the exceptions cli.main classifies: a usage error (exit 1) is a ValueError,
# a UsageError or an argparse.ArgumentTypeError, numerics out of range
# (exit 3) an OverflowError, and a failed check (exit 2) an ArithmeticError
CLASSIFIED_RAISES = {"ValueError", "OverflowError", "ArithmeticError", "UsageError",
                     "argparse.ArgumentTypeError"}


def unclassified_raises(source: str) -> list:
    """(line, exception) for each raise of a class outside CLASSIFIED_RAISES,
    called or not; a bare raise re-raises and passes."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if ast.unparse(exc) not in CLASSIFIED_RAISES:
                out.append((node.lineno, ast.unparse(exc)))
    return out


def test_raise_checker():
    src = ("raise ValueError('x')\nraise OverflowError\nraise argparse.ArgumentTypeError('y')\n"
           "try:\n    pass\nexcept KeyError:\n    raise\n"
           "raise RuntimeError('z')\nraise exc\nraise ArgumentTypeError('w') from None\n")
    assert unclassified_raises(src) == [(8, "RuntimeError"), (9, "exc"), (10, "ArgumentTypeError")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_src_raises_only_classified_errors(path):
    assert unclassified_raises(path.read_text()) == []


def _bound_names(tree) -> set:
    """Names bound at the top level of a module: definitions, assignment
    targets and imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    return names


def benchmark_reads(source: str) -> list:
    """(line, "module.name") for each package name a benchmark source reads:
    each module of ``from qgamma import module`` (as "qgamma.module"), each
    load of ``module.name`` on such a module, each ``(module, "name")``
    tuple, the form of the ``layers()`` table the tracer patches by name,
    and each name of ``from qgamma.module import name``."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 0
               and node.module == "qgamma" for alias in node.names}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == "qgamma":
                out += [(node.lineno, f"qgamma.{alias.name}") for alias in node.names]
            elif node.module.startswith("qgamma."):
                out += [(node.lineno, f"{node.module[7:]}.{alias.name}") for alias in node.names]
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and isinstance(node.value, ast.Name) and node.value.id in modules):
            out.append((node.lineno, f"{modules[node.value.id]}.{node.attr}"))
        elif (isinstance(node, ast.Tuple) and len(node.elts) >= 2
              and isinstance(node.elts[0], ast.Name) and node.elts[0].id in modules
              and isinstance(node.elts[1], ast.Constant) and isinstance(node.elts[1].value, str)):
            out.append((node.lineno, f"{modules[node.elts[0].id]}.{node.elts[1].value}"))
    return sorted(out)


def test_benchmark_reads_checker():
    src = ("from qgamma import asympt, connection as conn\nfrom qgamma.rings import cup\n"
           "import qgamma.cli\nx = asympt.limit_ratio(conn.j_scaled)\nasympt.y = 1\n"
           "pairs = [(conn, 'spectrum', 'span', None), (conn, 3), (other, 'z')]\n"
           "other.attr\n")
    assert benchmark_reads(src) == [(1, "qgamma.asympt"), (1, "qgamma.connection"),
                                    (2, "rings.cup"), (4, "asympt.limit_ratio"),
                                    (4, "connection.j_scaled"), (6, "connection.spectrum")]
    tree = ast.parse("import os\nfrom a import b as c\nx, (y, z) = 1, (2, 3)\nw: int = 0\n"
                     "def f():\n    v = 1\nclass C:\n    u = 1\n")
    assert _bound_names(tree) == {"os", "c", "x", "y", "z", "w", "f", "C"}


def test_benchmark_reads_only_names_the_package_defines():
    # the benchmark wraps package functions by name from outside
    # (perfbench/tracer.py); a renamed or deleted one would otherwise fail
    # only its traced run and its self-test, never this suite
    present = {f"qgamma.{p.stem}" for p in MODULES}
    present |= {f"{p.stem}.{name}" for p in MODULES for name in _bound_names(ast.parse(p.read_text()))}
    reads = [(path.name, line, name) for path in BENCHMARK
             for line, name in benchmark_reads(path.read_text())]
    assert {"connection.j_scaled", "mrs.kapranov_gamma_mrs"} <= {name for *_, name in reads}
    assert [r for r in reads if r[2] not in present] == []
