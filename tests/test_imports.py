"""Every name a package module imports is read in it.  `__init__.py` imports
to re-export, and `fpkernels.py` binds `active` for perfbench to read."""

import ast
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
