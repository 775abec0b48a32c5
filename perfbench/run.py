#!/usr/bin/env python3
"""The jordanquad benchmark: seeded workloads, timed from outside the
package, with every op's result checked against exact oracles.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fp-sampled --seed 1 --seconds 20 --trace 0

The package is imported from ./src (no install step).  One process, one
thread, a closed loop: one caller runs the workload's op list in order,
pass after pass, until --seconds have elapsed (at least one pass).  Each
op is timed alone and scaled by a calibration loop timed next to it (see
REF_SECONDS); oracle checks run after the pass, outside the timing.

--trace 0 prints the end-to-end metrics (medians over passes).  --trace 1
runs a warm-up pass, a pass with spans on the package's entry points, an
untraced pass (for the overhead) and a pass counting FpElem arithmetic,
prints the per-layer metrics and writes the spans to perfbench/out/.  The
last line of standard output is the JSON result; the lines before it give
provenance and a summary.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 9

from spans import Tracer  # noqa: E402  (perfbench/spans.py, next to this file)
from workloads import WORKLOADS  # noqa: E402

SPAN_CALLS_AND_SELF = (
    "jordan.is_rank_one", "jordan.u_operator", "jordan.jordan_mul",
    "cayley_dickson.mul", "cayley_dickson.add",
    "scalars.square_class", "scalars.is_prime",
    "birational.veronese", "birational.veronese_inverse",
    "birational.transposition_map", "birational.transposition_star",
    "birational.in_z1", "birational.half_space_square_zero",
    "sweeps.sample_quadric_points",
    "fpkernels.quadric_sweep", "fpkernels.z1_sweep", "fpkernels.isotropic_vector",
    "quadform.witt_index", "quadform.witt_index_by_search",
    "quadform.hilbert_symbol", "quadform.relevant_places",
    "quadform.fp_projective_zero_count", "quadform.isotropic_vector_search",
)
SPAN_SELF_ONLY = (
    "jordan.basis", "sweeps.exhaustive_quadric_sweep", "sweeps.exhaustive_z1_sweep",
    "motives.verify_blowup", "motives.decompose_xj", "motives.poincare_xj_recursive",
    "rootsys.check_orbit_dims", "rootsys.xj_euler_characteristic",
)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# On a shared 2-core cloud VM the CPU speed changes by up to 1.8x over
# seconds to minutes, for every process alike.  A fixed loop of stdlib
# arithmetic, timed next to each measurement, slows by the same factor as
# the package, so every time below is scaled to seconds on a CPU where that
# loop takes REF_SECONDS, about its time on an idle core of such a VM.
REF_SECONDS = 0.002


class _Residue:
    __slots__ = ("p", "v")

    def __init__(self, p, v):
        self.p = p
        self.v = v % p

    def __add__(self, other):
        return _Residue(self.p, self.v + other.v)

    def __mul__(self, other):
        return _Residue(self.p, self.v * other.v)


def calibration():
    """Seconds taken by the fixed reference loop: small-object arithmetic
    through dunder methods, Fractions and dict stores, like the package."""
    t0 = time.perf_counter()
    acc, x = _Residue(101, 1), _Residue(101, 7)
    q, third, seen = Fraction(0), Fraction(1, 3), {}
    for i in range(400):
        acc = acc * x + x
        q += third * Fraction(i % 7 + 1, 5)
        seen[i % 13] = (acc.v, i)
    return time.perf_counter() - t0


def scale(before, after):
    """Factor from this CPU's current speed to the reference CPU's."""
    return 2 * REF_SECONDS / (before + after)


def import_package():
    """Drop any loaded copy of jordanquad and import it afresh from ./src."""
    for name in [m for m in sys.modules if m == "jordanquad" or m.startswith("jordanquad.")]:
        del sys.modules[name]
    importlib.import_module("jordanquad")
    importlib.import_module("jordanquad.sweeps")


def set_up(build, specs):
    """Import plus construction of the workload's package objects, repeated
    SETUP_REPEATS times; the ops of the last repetition are the ones run."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # the previous repetition's objects are not this one's cost
        before = calibration()
        t0 = time.perf_counter()
        import_package()
        ops = build(specs)
        elapsed = time.perf_counter() - t0
        times.append(elapsed * scale(before, calibration()))
    return ops, times


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def kernel_agreement():
    """Compiled and pure kernels must agree counter for counter on one
    small sweep of each kind; None when no compiled kernel is importable."""
    from jordanquad import fpkernels, sweeps
    if fpkernels.compiled is None:
        return None
    ki = sweeps.kernel_inputs(sweeps.fp_algebra(5, 1, 3))
    return all(getattr(fpkernels.compiled, k)(*ki, -1) == getattr(fpkernels.pure, k)(*ki, -1)
               for k in ("quadric_sweep", "z1_sweep"))


def run_pass(ops, tracer=None):
    """Run every op once, in order, with the calibration loop before the
    first op and after each one.  Returns the ops' times scaled to the
    reference CPU, each by the loops on either side of it, the scale
    factors, the results (an op that raises yields its exception) and the
    calibration times."""
    latencies, results, refs = [], [], [calibration()]
    clock = time.perf_counter
    for i, op in enumerate(ops):
        t0 = clock()
        try:
            out = tracer.run_op(i, op.run) if tracer else op.run()
        except Exception as exc:  # a raising op is a failed op, not a crash
            out = exc
        latencies.append(clock() - t0)
        results.append(out)
        refs.append(calibration())
    scales = [scale(refs[i], refs[i + 1]) for i in range(len(ops))]
    return [t * f for t, f in zip(latencies, scales)], scales, results, refs


def check_pass(ops, results):
    """(op index, kind, problems) for every op whose result fails its oracle."""
    bad = []
    for i, (op, out) in enumerate(zip(ops, results)):
        if isinstance(out, Exception):
            problems = ["raised " + "".join(traceback.format_exception_only(out)).strip()]
        else:
            problems = op.check(out)
        if problems:
            bad.append((i, op.kind, problems))
    return bad


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(ops, seconds):
    """Passes until `seconds` have elapsed; medians over the passes."""
    passes, refs, failures = [], [], []
    t_run = time.perf_counter()
    while True:
        latencies, _, results, pass_refs = run_pass(ops)
        failures += check_pass(ops, results)
        passes.append(latencies)
        refs += pass_refs
        del results
        gc.collect()  # every pass starts from the same heap
        if time.perf_counter() - t_run >= seconds:
            break
    wall_s = statistics.median(sum(lat) for lat in passes)
    per_op = [statistics.median(lat[i] for lat in passes) for i in range(len(ops))]
    metrics = {
        "wall_s": metric(wall_s, "s"),
        "points_per_s": metric(sum(op.points for op in ops) / wall_s, "1/s"),
        "op_p50_ms": metric(statistics.median(per_op) * 1e3, "ms"),
        "op_p90_ms": metric(statistics.quantiles(per_op, n=10)[8] * 1e3, "ms"),
    }
    summary = {"passes": len(passes),
               "pass_wall_s": [round(sum(lat), 4) for lat in passes],
               "calibration_ms": round(statistics.median(refs) * 1e3, 4)}
    return metrics, len(passes), failures, summary


def traced_run(ops, workload, seed, header):
    """A warm-up pass, then traced and untraced passes on the same ops (for
    the overhead), then a pass counting FpElem arithmetic."""
    _, _, results, _ = run_pass(ops)
    failures = check_pass(ops, results)

    tracer = Tracer()
    tracer.install_spans()
    try:
        traced, scales, results, _ = run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    failures += check_pass(ops, results)
    wall1 = sum(traced)

    untraced, _, results, _ = run_pass(ops)
    failures += check_pass(ops, results)
    wall0 = sum(untraced)

    counter = Tracer()
    counter.install_fp_counter()
    try:
        _, _, results, _ = run_pass(ops)
    finally:
        counter.uninstall()
    failures += check_pass(ops, results)

    totals = tracer.layer_totals(scales)
    zero = {"calls": 0, "self_s": 0.0, "scanned": 0, "useful": 0}
    metrics = {}
    for label in SPAN_CALLS_AND_SELF:
        t = totals.get(label, zero)
        metrics[f"{label}.calls"] = metric(t["calls"], "count")
        metrics[f"{label}.self_s"] = metric(t["self_s"], "s")
    for label in SPAN_SELF_ONLY:
        metrics[f"{label}.self_s"] = metric(totals.get(label, zero)["self_s"], "s")
    for label in ("fpkernels.quadric_sweep", "fpkernels.z1_sweep"):
        t = totals.get(label, zero)
        rate = t["scanned"] / t["self_s"] if t["self_s"] else 0.0
        metrics[f"{label}.points_per_s"] = metric(rate, "1/s")
    q = totals.get("fpkernels.quadric_sweep", zero)
    metrics["fpkernels.quadric_sweep.useful_frac"] = metric(
        q["useful"] / q["scanned"] if q["scanned"] else 0.0, "ratio")
    metrics["scalars.fp_ops.calls"] = metric(counter.fp_ops, "count")
    metrics["trace.overhead_frac"] = metric((wall1 - wall0) / wall0, "ratio")

    shares = {}
    for label, t in totals.items():
        module = label.split(".")[0]
        shares[module] = shares.get(module, 0.0) + t["self_s"] / wall1
    summary = {"untraced_wall_s": round(wall0, 4), "traced_wall_s": round(wall1, 4),
               "spans": len(tracer.start),
               "self_time_share": {k: round(v, 4) for k, v in sorted(shares.items())},
               "note": "scalars.fp_ops is counted in its own pass, not timed; "
                       "'op' is time outside every traced entry point"}
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{workload}.spans"),
                dict(header, **summary, workload=workload, seed=seed))
    return metrics, 4, failures, summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few ops per workload, for the smoke test")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "jordanquad", "__init__.py")):
        fail(f"no jordanquad sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)

    generate, build = WORKLOADS[args.workload]
    specs = generate(args.seed, tiny=args.tiny)
    ops, setup_times = set_up(build, specs)
    import jordanquad
    from jordanquad import fpkernels
    if not os.path.abspath(jordanquad.__file__).startswith(SRC + os.sep):
        fail(f"imported jordanquad from {jordanquad.__file__}, not from {SRC}")

    agreement = kernel_agreement()
    header = {"git_sha": git_sha(), "python": platform.python_version(),
              "backend": fpkernels.backend_name(), "nproc": os.cpu_count(),
              "seed": args.seed, "workload": args.workload,
              "ops_per_pass": len(ops),
              "points_per_pass": sum(op.points for op in ops),
              "op_kinds": {k: sum(op.kind == k for op in ops)
                           for k in sorted({op.kind for op in ops})},
              "compiled_pure_agreement": ("not built" if agreement is None
                                          else "agree" if agreement else "DISAGREE")}
    print(json.dumps({"provenance": header}))

    if args.trace:
        metrics, passes, failures, summary = traced_run(ops, args.workload, args.seed, header)
    else:
        metrics, passes, failures, summary = timed_run(ops, args.seconds)
        metrics["setup_s"] = metric(statistics.median(setup_times), "s")
        metrics["peak_rss_mb"] = metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    attempted = passes * len(ops) + (agreement is not None)
    failed = len(failures) + (agreement is False)
    for i, kind, problems in failures[:10]:
        print(f"perfbench: op {i} ({kind}) failed: {'; '.join(problems[:3])}", file=sys.stderr)
    print(json.dumps({"summary": dict(summary, fail_frac=failed / attempted)}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
