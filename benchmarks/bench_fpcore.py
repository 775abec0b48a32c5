#!/usr/bin/env python3
"""Benchmark the compiled mod-p kernels against the pure-Python fallback.

Runs the two sweep kernels on identical inputs through both
implementations and reports points/second plus the speedup.  Each sweep
exhausts its whole projective space (about 1e5 to 3e5 points) on both
paths, so both time the same points -- a prefix of the odometer order
would hold only points with lead coordinate 0.  It exits 1 if a pure
sweep sets a `*_fail` counter or the compiled counters differ from the
pure ones.  A compiled sweep takes 30 ms at most, so its time is the best
of COMPILED_RUNS runs; each pure one runs once.  The compiled kernels are
built from the C source `_fpcore.c`; the isotropic-vector search has no
compiled twin.
Usage:

    python setup.py build_ext --inplace
    python benchmarks/bench_fpcore.py
"""

import sys
import time

from jordanquad import _fpcore_py, fpkernels, sweeps

NOT_BUILT = "not importable; build it with `python setup.py build_ext --inplace`"
COMPILED_RUNS = 5


def timed(fn, *args, runs=1):
    """fn(*args) and the least wall time of `runs` calls."""
    best = float("inf")
    for _ in range(runs):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return out, best


def bench_sweep(name, names, alg):
    ki = sweeps.kernel_inputs(alg)
    out_p, dt_p = timed(getattr(_fpcore_py, name), *ki, -1)
    rate_p = out_p[0] / dt_p
    print(f"{name:24s} pure-python: {out_p[0]:>9d} pts in {dt_p:7.3f}s "
          f"({rate_p:12,.0f} pts/s)")
    fails = {k: v for k, v in zip(names, out_p, strict=True)
             if k.endswith("_fail") and v}
    if fails:
        raise SystemExit(f"{name}: the pure kernel reports failures: {fails}")
    if fpkernels.compiled is None:
        print(f"{name:24s} compiled:    {NOT_BUILT}")
        return
    out_c, dt_c = timed(getattr(fpkernels.compiled, name), *ki, -1,
                        runs=COMPILED_RUNS)
    rate_c = out_c[0] / dt_c
    print(f"{name:24s} compiled:    {out_c[0]:>9d} pts in {dt_c:7.3f}s "
          f"({rate_c:12,.0f} pts/s)  speedup x{rate_c / rate_p:,.1f}")
    if out_c != out_p:
        raise SystemExit(f"{name}: compiled and pure kernels disagree: "
                         f"{out_c} != {out_p}")


def main():
    print(f"active backend: {fpkernels.backend_name()}")
    alg = sweeps.fp_algebra(7, 1, 4)
    space = sweeps.projective_size(7, sweeps.flat_dim(alg))
    print(f"\nquadric sweep, p=7 r=1 n=4 (projective space: {space:,} points)")
    bench_sweep("quadric_sweep", sweeps._QUADRIC_COUNTERS, alg)
    alg2 = sweeps.fp_algebra(3, 2, 4)
    space2 = sweeps.projective_size(3, alg2.cd.dim * (alg2.n - 1))
    print(f"\nbase-locus sweep, p=3 r=2 n=4 (projective space: {space2:,} points)")
    bench_sweep("z1_sweep", sweeps._Z1_COUNTERS, alg2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
