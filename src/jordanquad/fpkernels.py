"""Kernel selection: the compiled _fpcore when it imports, pure Python otherwise.

`setup.py` builds _fpcore from the hand-written `_fpcore.c` whenever a C
compiler works; everything works (just slower) on the pure-Python twin.
"""

from . import _fpcore_py as pure

try:
    from . import _fpcore as compiled
except ImportError:
    compiled = None

active = compiled if compiled is not None else pure


def backend_name():
    return "compiled" if active is compiled else "pure-python"
