"""The names perfbench reads to report and trace the mod-p kernels.

The kernels have one implementation, `_fpcore_py`, which `sweeps` and
`quadform` call directly.  This module stays only because `perfbench/`
looks the kernels up on `active` and reports `backend_name()` and whether
a `compiled` module agrees with them; it can go together with those lines.
"""

from . import _fpcore_py as active

compiled = None


def backend_name():
    return "pure-python"
