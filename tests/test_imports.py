"""Every name a package module imports is read in it.  `__init__.py` imports
to re-export, and `fpkernels.py` binds `active` for perfbench to read.  The
package's own imports form layers: no cycle, and the mod-p kernels at the
bottom, beside the composition-algebra product they share with the layers
above.  Every private module-level definition is read somewhere in the
package."""

import ast
import graphlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "jordanquad"
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


# test oracles kept in the package on purpose: cayley_dickson's recursive
# product, which its module docstring says the algebra itself never calls
ORACLES = {("cayley_dickson", "_mul_rec")}


def unread_private_definitions(sources):
    """(module, name) for each module-level `def _x` or `class _X` in
    `sources`, {module: source}, that nothing reads outside its own body:
    as a name elsewhere in its module, or in any module as an imported name
    or an attribute."""
    defined, local, imported = [], set(), set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = top.name
                if owner.startswith("_") and not owner.startswith("__"):
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


def test_package_reads_every_private_definition():
    """A private helper that lost its last caller is dead code: every one is
    read somewhere in the package, but for the allowlisted test oracles."""
    assert unread_private_definitions({
        "a": "def _f():\n    return _f()\n\nclass _C:\n    pass\n\ndef _g():\n    pass\n\n"
             "def _k():\n    pass\n\ndef _m():\n    pass\n\ndef run():\n    return _g()\n",
        "b": "from . import a\nfrom .a import _k\n\ndef run():\n    return _k, a._m\n"}) == [
        ("a", "_f"), ("a", "_C")]
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert set(unread_private_definitions(sources)) <= ORACLES
