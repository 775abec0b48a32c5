"""Every name a package module imports is read in it.  `__init__.py` imports
to re-export, and `fpkernels.py` binds `active` for perfbench to read.  The
package's own imports form layers: no cycle, and the mod-p kernels at the
bottom, beside the composition-algebra product they share with the layers
above.  Every private module-level definition is read somewhere in the
package, and every public one in the package, perfbench or the console
script, so nothing stays in the package for the tests alone.  Euler's
criterion and the size of a projective space over F_p are each written
once, and the command line reads no MAX_* bound, which the library
function that takes the value owns."""

import ast
import graphlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jordanquad"
REEXPORTS = {"__init__.py", "fpkernels.py"}


def unused_imports(source):
    """(line, name) for each name bound by an import in `source` and never
    read as a name there."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_package_modules_read_every_import():
    assert unused_imports("import os\nimport sys\nfrom a.b import c as d\nsys.exit(d)\n") == [
        (1, "os")]
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name not in REEXPORTS]
    assert modules
    unused = {path.name: found for path in modules
              if (found := unused_imports(path.read_text(encoding="utf-8")))}
    assert not unused, unused


def package_imports(source):
    """The package modules a module imports by relative import, anywhere in
    it: `from .x import y` gives x, `from . import x, y` gives x and y."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def test_package_imports_form_layers():
    """A cycle through the kernels would still import (a `from . import`
    of a module half loaded binds it), so it is caught here: the graph of
    the package's imports sorts topologically, and _fpcore_py, which the
    composition-algebra layers import their product from, imports only
    scalars."""
    assert package_imports("from . import a, b\nfrom .c.d import e\nimport os\n") == {
        "a", "b", "c"}
    graph = {path.stem: package_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert graph["_fpcore_py"] == {"scalars"}
    assert "_fpcore_py" in graph["cayley_dickson"] & graph["jordan"] & graph["birational"]
    list(graphlib.TopologicalSorter(graph).static_order())      # CycleError on a cycle


# test oracles kept in the package on purpose, with no reader in it:
# - cayley_dickson's recursive product, which its module docstring says the
#   algebra itself never calls;
# - the polar form quadform.bilinear, which the tests' reference sampler
#   (t = -q(v) / 2B(e, v)) checks sweeps.sample_quadric_points against;
# - sweeps.xj_expected_count, the classical closed forms of #X(J)(F_p),
#   which share no code with motives.
ORACLES = {("cayley_dickson", "_mul_rec"), ("quadform", "bilinear"),
           ("sweeps", "xj_expected_count")}


def unread_definitions(sources, public=False, outside=frozenset()):
    """(module, name) for each module-level `def _x` or `class _X` in
    `sources`, {module: source}, or with `public` each `def x` or
    `class X`, that nothing reads outside its own body: as a name elsewhere
    in its module, or in any module as an imported name or an attribute,
    or as a name in `outside`."""
    defined, local, imported = [], set(), set(outside)
    for module, source in sources.items():
        for top in ast.parse(source).body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = top.name
                if (not owner.startswith("_") if public
                        else owner.startswith("_") and not owner.startswith("__")):
                    defined.append((module, owner))
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id != owner:
                    local.add((module, node.id))
                elif isinstance(node, ast.Attribute):
                    imported.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    imported.update(alias.name for alias in node.names)
    return [(module, name) for module, name in defined
            if (module, name) not in local and name not in imported]


def package_sources():
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def test_package_reads_every_private_definition():
    """A private helper that lost its last caller is dead code: every one is
    read somewhere in the package, but for the allowlisted test oracles."""
    assert unread_definitions({
        "a": "def _f():\n    return _f()\n\nclass _C:\n    pass\n\ndef _g():\n    pass\n\n"
             "def _k():\n    pass\n\ndef _m():\n    pass\n\ndef run():\n    return _g()\n",
        "b": "from . import a\nfrom .a import _k\n\ndef run():\n    return _k, a._m\n"}) == [
        ("a", "_f"), ("a", "_C")]
    assert set(unread_definitions(package_sources())) <= ORACLES


def outside_reads(source):
    """The names a module outside the package reads: names, attributes and
    imported names, and each part of a string that is a dotted name, as
    perfbench's span targets ("JordanElem.is_rank_one") are."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"\w+(\.\w+)*", node.value)):
            out.update(node.value.split("."))
    return out


def test_package_reads_every_public_definition():
    """A public definition that only the tests read belongs next to them:
    every one is read in the package (`__init__.py`'s re-exports count),
    by perfbench or by the console script, but for the allowlisted test
    oracles."""
    assert outside_reads('"""Spans of a.f."""\nfrom a import g\nSPANS = {"x": ("a", "C.h")}\n'
                         "a.k(v)\n") == {"g", "SPANS", "x", "a", "C", "h", "k", "v"}
    assert unread_definitions({
        "a": "def f():\n    return f()\n\nclass C:\n    pass\n\ndef g():\n    pass\n\n"
             "def h():\n    pass\n\ndef _p():\n    pass\n\ndef run():\n    return g()\n",
        "b": "from .a import run\n"}, public=True, outside={"h"}) == [
        ("a", "f"), ("a", "C")]
    outside = {name for path in sorted((ROOT / "perfbench").glob("*.py"))
               for name in outside_reads(path.read_text(encoding="utf-8"))}
    outside.update(re.findall(r'"jordanquad\.\w+:(\w+)"',
                              (ROOT / "pyproject.toml").read_text(encoding="utf-8")))
    assert set(unread_definitions(package_sources(), public=True, outside=outside)) <= ORACLES


def bounds_read(source):
    """The MAX_* names a module reads (see outside_reads)."""
    return {name for name in outside_reads(source) if name.startswith("MAX_")}


def test_command_line_reads_no_bound():
    """A bound such as sweeps.MAX_BUDGET or motives.MAX_N is checked by the
    library function that takes the value (verify.run_suite, check_rn), so
    cli.py reads none and cannot keep a second copy of the check."""
    assert bounds_read("from .sweeps import MAX_SAMPLES\nx = sweeps.MAX_BUDGET + MAX_N\n"
                       "MAXIMUM = 1\n") == {"MAX_SAMPLES", "MAX_BUDGET", "MAX_N"}
    assert bounds_read((PACKAGE / "cli.py").read_text(encoding="utf-8")) == set()


def _euler(node):
    """Whether node is pow(a, (x - 1) // 2, x), Euler's criterion mod x."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "pow" and len(node.args) == 3
            and ast.unparse(node.args[1]) == f"({ast.unparse(node.args[2])} - 1) // 2")


def _projective(node):
    """Whether node is (x ** k - 1) // (x - 1), the size of P^{k-1}(F_x)."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)):
        return False
    num, den = node.left, node.right
    return (all(isinstance(e, ast.BinOp) and isinstance(e.op, ast.Sub)
                and isinstance(e.right, ast.Constant) and e.right.value == 1
                for e in (num, den))
            and isinstance(num.left, ast.BinOp) and isinstance(num.left.op, ast.Pow)
            and ast.dump(num.left.left) == ast.dump(den.left))


def fp_primitive_copies(source):
    """(function, kind) for each Euler's criterion ("euler") and each
    projective-space size ("projective") written out in `source`, the
    function the innermost def holding it, None at module level, in source
    order."""
    tree = ast.parse(source)
    owner = {}
    for fn in ast.walk(tree):       # breadth first: an inner def overwrites
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                owner[node] = fn.name
    shapes = (("euler", _euler), ("projective", _projective))
    found = [(node.lineno, node.col_offset, owner.get(node), kind)
             for node in ast.walk(tree) for kind, shape in shapes if shape(node)]
    return [(fn, kind) for *_, fn, kind in sorted(found, key=lambda f: f[:2])]


def test_one_copy_of_each_fp_primitive():
    """Euler's criterion lives in scalars.is_residue and (p^N - 1)/(p - 1) in
    _fpcore_py.projective_size; every other residue decision and space size
    calls them."""
    assert fp_primitive_copies(
        "def f(q):\n    def g(p):\n        return pow(a, (p - 1) // 2, p)\n"
        "    return (q ** 3 - 1) // (q - 1), (q ** 3 - 1) // (q - 2), pow(a, (q - 1) // 2, 7)\n"
        "x = pow(a, (self.p - 1) // 2, self.p)\n") == [
        ("g", "euler"), ("f", "projective"), (None, "euler")]
    found = {(path.stem, *copy) for path in sorted(PACKAGE.glob("*.py"))
             for copy in fp_primitive_copies(path.read_text(encoding="utf-8"))}
    assert found == {("scalars", "is_residue", "euler"),
                     ("_fpcore_py", "projective_size", "projective")}
