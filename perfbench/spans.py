"""In-memory span tracing of jordanquad's public entry points.

`Tracer.install` wraps each traced name wherever callers look it up: every
binding of the function in the package's modules (sweeps imports the
birational and quadform functions at import time), methods on their class,
and the kernels on `fpkernels.active`.  A span records its name, start,
end, parent span and op id in flat arrays; `metrics` derives per-layer
calls and self time (duration minus the time its child spans cover) from
them, and `write` dumps them.

FpElem arithmetic runs millions of times per pass and costs well under a
microsecond, so timing each call would cost more than the run itself:
`scalars.fp_ops` is counted, in a separate pass, and not timed.
"""

import json
import sys
import time
from array import array

# label -> (module, attribute path) of the traced callables
SPANS = {
    "jordan.is_rank_one": [("jordan", "JordanElem.is_rank_one")],
    "jordan.u_operator": [("jordan", "JordanElem.u_operator")],
    "jordan.jordan_mul": [("jordan", "JordanElem.jordan_mul")],
    "jordan.basis": [("jordan", "JordanAlgebra.basis")],
    "cayley_dickson.mul": [("cayley_dickson", "CDElem.__mul__"),
                           ("cayley_dickson", "CDElem.__rmul__")],
    "cayley_dickson.add": [("cayley_dickson", "CDElem.__add__"),
                           ("cayley_dickson", "CDElem.__sub__")],
    "scalars.square_class": [("scalars", "Rationals.square_class"),
                             ("scalars", "PrimeField.square_class")],
    "scalars.is_prime": [("scalars", "is_prime")],
    "birational.veronese": [("birational", "veronese")],
    "birational.veronese_inverse": [("birational", "veronese_inverse")],
    "birational.transposition_map": [("birational", "transposition_map")],
    "birational.transposition_star": [("birational", "transposition_star")],
    "birational.in_z1": [("birational", "in_z1")],
    "birational.half_space_square_zero": [("birational", "half_space_square_zero")],
    "sweeps.sampled_quadric_checks": [("sweeps", "sampled_quadric_checks")],
    "sweeps.sampled_z1_checks": [("sweeps", "sampled_z1_checks")],
    "sweeps.sample_quadric_points": [("sweeps", "sample_quadric_points")],
    "sweeps.exhaustive_quadric_sweep": [("sweeps", "exhaustive_quadric_sweep")],
    "sweeps.exhaustive_z1_sweep": [("sweeps", "exhaustive_z1_sweep")],
    "fpkernels.quadric_sweep": [("fpkernels", "active.quadric_sweep")],
    "fpkernels.z1_sweep": [("fpkernels", "active.z1_sweep")],
    "fpkernels.isotropic_vector": [("fpkernels", "active.isotropic_vector")],
    "quadform.witt_index": [("quadform", "witt_index")],
    "quadform.witt_index_by_search": [("quadform", "witt_index_by_search")],
    "quadform.hilbert_symbol": [("quadform", "hilbert_symbol")],
    "quadform.relevant_places": [("quadform", "relevant_places")],
    "quadform.fp_projective_zero_count": [("quadform", "fp_projective_zero_count")],
    "quadform.isotropic_vector_search": [("quadform", "isotropic_vector_search")],
    "motives.verify_blowup": [("motives", "verify_blowup")],
    "motives.decompose_xj": [("motives", "decompose_xj")],
    "motives.poincare_xj_recursive": [("motives", "poincare_xj_recursive")],
    "rootsys.check_orbit_dims": [("rootsys", "check_orbit_dims")],
    "rootsys.xj_euler_characteristic": [("rootsys", "xj_euler_characteristic")],
}

FP_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "__truediv__", "__rtruediv__", "__neg__", "__pow__")

# The kernels return their counters; scanned is the first, and for the
# quadric sweep roundtrip_checked (the useful points) is the fifth.
KERNEL_WORK = {"fpkernels.quadric_sweep": lambda out: (out[0], out[4]),
               "fpkernels.z1_sweep": lambda out: (out[0], 0)}

ROOT = "op"


def _resolve(module, path):
    """(owner object, attribute name) for 'Class.attr' or 'attr' paths."""
    owner = sys.modules[f"jordanquad.{module}"]
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Spans in flat arrays; one instance per traced pass."""

    def __init__(self):
        self.labels = [ROOT]
        self.name = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.work = {}            # span index -> (scanned, useful)
        self.stack = [-1]
        self.current_op = -1
        self.fp_ops = 0
        self._undo = []

    # -- patching ----------------------------------------------------------

    def _rebind(self, original, replacement):
        """Replace `original` in every jordanquad module namespace that
        binds it; returns how many bindings were replaced."""
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if modname != "jordanquad" and not modname.startswith("jordanquad."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))
                    hits += 1
        return hits

    def _patch(self, module, path, replacement_for):
        owner, attr = _resolve(module, path)
        original = getattr(owner, attr)
        replacement = replacement_for(original)
        if isinstance(owner, type) or not self._rebind(original, replacement):
            setattr(owner, attr, replacement)
            self._undo.append((owner, attr, original))

    def install_spans(self):
        for label, targets in SPANS.items():
            for module, path in targets:
                self._patch(module, path, lambda fn, label=label: self._span(fn, label))

    def install_fp_counter(self):
        for attr in FP_OPS:
            self._patch("scalars", f"FpElem.{attr}", self._counter)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- recording ---------------------------------------------------------

    def _label_id(self, label):
        if label not in self.labels:
            self.labels.append(label)
        return self.labels.index(label)

    def _span(self, fn, label):
        nid = self._label_id(label)
        work = KERNEL_WORK.get(label)
        name, parent, op, start, end = self.name, self.parent, self.op, self.start, self.end
        stack, clock, tracer = self.stack, time.perf_counter, self

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            op.append(tracer.current_op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if work is not None:
                tracer.work[idx] = work(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _counter(self, fn):
        tracer = self

        def counted(*args):
            tracer.fp_ops += 1
            return fn(*args)

        counted.__wrapped__ = fn
        return counted

    def run_op(self, op_id, fn):
        """Run one op as a root span."""
        self.current_op = op_id
        return self._span(fn, ROOT)()

    # -- derived metrics ---------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the durations of its children
        (children nest strictly inside their parent on one thread)."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child[par] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(n)]

    def layer_totals(self, op_scales):
        """label -> {"calls", "self_s", "scanned", "useful"}, with each
        span's self time multiplied by its op's entry in op_scales."""
        totals = {label: {"calls": 0, "self_s": 0.0, "scanned": 0, "useful": 0}
                  for label in self.labels}
        for i, s in enumerate(self.self_times()):
            t = totals[self.labels[self.name[i]]]
            t["calls"] += 1
            t["self_s"] += s * op_scales[self.op[i]]
            if i in self.work:
                t["scanned"] += self.work[i][0]
                t["useful"] += self.work[i][1]
        return totals

    def write(self, path, header):
        """Spans as raw arrays after a one-line JSON header that names the
        labels, the field order and each array's length."""
        fields = ("name", "parent", "op", "start", "end")
        head = dict(header, labels=self.labels, fields=fields,
                    typecodes=[getattr(self, f).typecode for f in fields],
                    spans=len(self.start),
                    work={str(k): v for k, v in self.work.items()})
        with open(path, "wb") as fh:
            fh.write(json.dumps(head).encode() + b"\n")
            for f in fields:
                getattr(self, f).tofile(fh)
