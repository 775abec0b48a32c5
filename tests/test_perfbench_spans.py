"""The benchmark's tracer names package functions by string; a rename or a
deletion in the package would only show when a traced benchmark runs.
This reads perfbench/spans.py as source, without importing or running it,
and checks that every name it traces still resolves."""

import ast
import importlib
from pathlib import Path

from jordanquad.scalars import FpElem

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def spans_constants():
    """The literal values of SPANS and FP_OPS in perfbench/spans.py."""
    tree = ast.parse(SPANS_PY.read_text(encoding="utf-8"))
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANS", "FP_OPS"):
                found[name] = ast.literal_eval(node.value)
    return found["SPANS"], found["FP_OPS"]


def test_every_traced_name_resolves():
    spans, fp_ops = spans_constants()
    assert spans and fp_ops
    for label, targets in spans.items():
        for module, path in targets:
            owner = importlib.import_module(f"jordanquad.{module}")
            for attr in path.split("."):
                assert hasattr(owner, attr), (label, module, path)
                owner = getattr(owner, attr)
            assert callable(owner), (label, module, path)
    for attr in fp_ops:
        assert callable(getattr(FpElem, attr, None)), attr
