"""Kernel selection: the compiled _fpcore when it imports, pure Python otherwise.

`setup.py` builds _fpcore from the hand-written `_fpcore.c` whenever a C
compiler works; everything works (just slower) on the pure-Python twin.
The compiled module holds the two sweeps only; `active.isotropic_vector` is
the pure search on either backend.
"""

from . import _fpcore_py as pure

try:
    from . import _fpcore as compiled
except ImportError:
    compiled = None
else:
    # callers look the search up on `active`; it has no compiled twin,
    # because the pure one takes a square root per fibre where a walk over
    # every point costs time linear in p
    compiled.isotropic_vector = pure.isotropic_vector

active = compiled if compiled is not None else pure


def backend_name():
    return "compiled" if active is compiled else "pure-python"
