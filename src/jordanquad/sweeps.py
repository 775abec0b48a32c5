"""Verification sweeps for the rank-one map: exhaustive over small F_p
spaces (kernel-backed), seeded stereographic sampling elsewhere.

Exhaustive sweeps cross-check their counters against exact cardinalities:
the number of points of an odd-dimensional quadric over F_p, and the base
locus count predicted by its Tate profile evaluated at p (the locus is a
split homogeneous variety whenever the composition algebra splits, and has
no rational points at all when the norm form is anisotropic).

The sampled path goes through the exact high-level objects (CDElem,
JordanElem) rather than the kernels, so the two routes validate each
other; rank-one checks ride on a subsample because they are the dearest
test per point: the entries of x^# at n = 3, and a full basis sweep of
U-operator evaluations at n >= 4.
"""

import operator
import random
from dataclasses import dataclass, field as _field
from fractions import Fraction

from . import _fpcore_py, motives
from .birational import (ProjPointC, half_space_square_zero, in_z1, in_z2,
                         on_quadric, projective_eq, q_form, transposition_map,
                         transposition_star, veronese, veronese_inverse)
from .cayley_dickson import CDAlgebra
from .errors import BasePointError, SamplingError
from .jordan import JordanAlgebra
from .quadform import (QuadForm, evaluate, fp_projective_zero_count,
                       isotropic_vector_search, tensor)
from .scalars import PrimeField

DEFAULT_BUDGET = 20000
# Largest exhaustive-sweep budget the command line accepts, ten times the
# README's example.  The quadric sweep ran 1.2-5.4 million points/s on the
# birational spaces of a shared 2-core x86-64 VM (the 1.9M points of
# (p, r, n) = (11, 1, 4) in 0.36 s, the 6.7M of (7, 2, 3) in 1.8 s, the
# 0.8M of (3, 2, 4) in 0.53 s, the 64.6M of (3, 3, 3) in 55 s), so a sweep
# at this ceiling takes 20-85 s there.  The z1 sweep, which skips every
# point below a block that fails a pair check, ran 7-86 million points/s
# on the base loci of the same shapes.
MAX_BUDGET = 10 ** 8
DEFAULT_SAMPLES = 120
# Largest sample count the command line accepts.  A case samples that many
# points, or sweeps its quadric when it has no more points than that, so an
# unbounded count would also bypass MAX_BUDGET.  On the same VM `verify z1`
# took 2.7 s at 1000 samples and 25 s at 10^4, `verify birational` 4.9 s
# at 1000.
MAX_SAMPLES = 10 ** 4
DEFAULT_RANK_CHECKS = 6
DEFAULT_SEED = 1789


def projective_size(p, N):
    return (p ** N - 1) // (p - 1)


def standard_b(field, n):
    """A fixed mixed-coefficient diagonal: 1, 2, ..., n-1 (reduced to stay
    nonzero mod p) and -1 last."""
    if isinstance(field, PrimeField):
        p = field.p
        vals = [(i % (p - 1)) + 1 for i in range(n - 1)]
        return [field.element(v) for v in vals] + [field.element(-1)]
    return [Fraction(i + 1) for i in range(n - 1)] + [Fraction(-1)]


def fp_algebra(p, r, n, split=True):
    """The standard F_p configuration: doubling parameters all 1 (split),
    or a leading non-residue for the r = 1 anisotropic case."""
    fld = PrimeField(p)
    if r == 0:
        params = []
    elif split:
        params = [1] * r
    else:
        params = [fld.least_nonresidue()] + [1] * (r - 1)
    return JordanAlgebra(CDAlgebra(fld, params), standard_b(fld, n))


def norm_is_split(alg):
    """Over F_p the norm form is split unless r <= 1 with a non-square
    parameter; over Q, definite Pfister parameters give anisotropy."""
    cd = alg.cd
    if cd.r == 0:
        return True
    from .quadform import is_isotropic
    return is_isotropic(cd.norm_form)


def z1_expected_count(alg):
    """Exact number of F_p-points of the base locus: zero when the norm
    form is anisotropic, else the Tate profile evaluated at p."""
    fld = alg.field
    r, n = alg.cd.r, alg.n
    if r == 0:
        return 0
    if not norm_is_split(alg):
        return 0
    return motives.decompose_z1(r, n).profile().eval_at(fld.p)


def kernel_inputs(alg):
    """(p, b, gamma) of the sweep kernels: the prime, the diagonal b and the
    flat structure-constant table of the composition algebra."""
    gamma = [g for row in alg.cd._gamma_v for g in row]
    return alg.field.p, alg.field.unwrap(alg.b)[0], gamma


@dataclass
class SweepReport:
    kind: str
    p: int
    r: int
    n: int
    mode: str
    space: int
    scanned: int
    counts: dict = _field(default_factory=dict)
    expected: dict = _field(default_factory=dict)
    failures: list = _field(default_factory=list)

    @property
    def ok(self):
        return not self.failures

    def as_dict(self):
        return {"kind": self.kind, "p": self.p, "r": self.r, "n": self.n,
                "mode": self.mode, "space": self.space, "scanned": self.scanned,
                "counts": self.counts, "expected": self.expected,
                "failures": self.failures, "ok": self.ok}


_QUADRIC_COUNTERS = ("scanned", "on_quadric", "base_points", "zslice_points",
                     "roundtrip_checked", "roundtrip_fail", "sym_fail",
                     "trace_fail", "diag_fail")
_Z1_COUNTERS = ("scanned", "z1_points", "equiv_fail")


def _kernel_report(kind, alg, names, raw, N, limit, oracle):
    """The report of a kernel sweep of P^{N-1}: each nonzero `*_fail`
    counter is a failure, and so, once the sweep is complete, is each count
    that differs from the exact one in oracle()."""
    p = alg.field.p
    counts = dict(zip(names, raw, strict=True))
    space = projective_size(p, N)
    complete = limit < 0 or limit >= space
    report = SweepReport(kind, p, alg.cd.r, alg.n,
                         "exhaustive" if complete else "partial",
                         space, counts["scanned"], counts)
    report.failures = [f"{key} = {v}" for key, v in counts.items()
                       if key.endswith("_fail") and v]
    if complete:
        report.expected = {"scanned": space, **oracle()}
        report.failures += [f"{key}: got {counts[key]}, expected {want}"
                            for key, want in report.expected.items()
                            if counts[key] != want]
    return report


def exhaustive_quadric_sweep(alg, limit=-1):
    """Kernel sweep of P(C^{n-1} x k) over F_p with exact count oracles
    (only checked when the sweep runs to completion)."""
    def oracle():
        exp_quadric = fp_projective_zero_count(q_form(alg))
        exp_base = z1_expected_count(alg)
        bprime = QuadForm(alg.field, alg.b[:-1])
        exp_slice = fp_projective_zero_count(tensor(alg.cd.norm_form, bprime)) - exp_base
        return {"on_quadric": exp_quadric, "base_points": exp_base,
                "zslice_points": exp_slice,
                "roundtrip_checked": exp_quadric - exp_base - exp_slice}

    raw = _fpcore_py.quadric_sweep(*kernel_inputs(alg), limit)
    return _kernel_report("quadric", alg, _QUADRIC_COUNTERS, raw,
                          flat_dim(alg), limit, oracle)


def exhaustive_z1_sweep(alg, limit=-1):
    """Kernel sweep of P(C^{n-1}) comparing the two base-locus predicates
    pointwise, with the exact point-count oracle."""
    raw = _fpcore_py.z1_sweep(*kernel_inputs(alg), limit)
    return _kernel_report("z1", alg, _Z1_COUNTERS, raw, flat_dim(alg) - 1,
                          limit, lambda: {"z1_points": z1_expected_count(alg)})


# ---------------------------------------------------------------------------
# Seeded sampling through the exact high-level objects


def flat_dim(alg):
    return alg.cd.dim * (alg.n - 1) + 1


def unflatten(alg, w):
    """Inverse of ProjPointC.flatten (slot-major coordinates)."""
    m, n = alg.cd.dim, alg.n
    cparts = []
    for i in range(n - 1):
        cparts.append(alg.cd.element([w[s * (n - 1) + i] for s in range(m)]))
    return ProjPointC(alg, cparts, w[-1])


def base_quadric_vector(alg):
    """A flat isotropic vector of the trace quadric, found on the scalar
    slice (all coordinates in k.e0; over Q in the box [-6, 6]), used as the
    center of stereographic sampling."""
    diag = QuadForm(alg.field, alg.b)
    v = isotropic_vector_search(diag, bound=6)
    if v is None:
        raise ValueError("no small isotropic vector on the scalar slice; "
                         "choose b with one (e.g. 1, 2, -3)")
    fld = alg.field
    N = flat_dim(alg)
    w = [fld.zero()] * N
    for i in range(alg.n - 1):
        w[i] = fld.element(v[i])          # slot-0 block positions
    w[N - 1] = fld.element(v[alg.n - 1])
    return w


def sample_quadric_points(alg, count, seed=DEFAULT_SEED):
    """Distinct projective points on the trace quadric, generated by lines
    through a fixed base point e: the line through e and a random vector v
    meets the quadric again at t e + v with t = -q(v) / 2B(e, v).

    One integer path for both fields: that point is taken as the vector
    -q(v) e + 2B(e, v) v, the same projective point, with q and B summed
    as integers on the form's coefficients and e unwrapped once (their
    denominators only scale the vector), reduced mod p over F_p when the
    point is built.  The draws from the seeded generator are the same on
    either path, so a seed gives the same points as the division by
    2B(e, v)."""
    fld = alg.field
    coeffs, _ = fld.unwrap(q_form(alg).coeffs)
    e, _ = fld.unwrap(base_quadric_vector(alg))
    ce = [c * a for c, a in zip(coeffs, e)]
    N = flat_dim(alg)
    nn = alg.n - 1
    # ProjPointC's block-major order from the form's slot-major one
    order = [s * nn + i for i in range(nn) for s in range(alg.cd.dim)] + [N - 1]
    rng = random.Random(seed)
    points, seen = [], set()
    draws = 0
    while len(points) < count:
        draws += 1
        if draws > 500 * count:
            raise SamplingError(f"sampling stalled: {len(points)} of {count} "
                                "distinct points found")
        if isinstance(fld, PrimeField):
            v = [rng.randrange(fld.p) for _ in range(N)]
        else:
            # widen the coordinate box as draws accumulate, so small
            # projective spaces (a conic has few low-height points) still
            # yield `count` distinct points deterministically
            hi = 5 + draws // (20 * count) * 5
            v = [rng.randint(-hi, hi) for _ in range(N)]
        bev = fld.reduce([sum(map(operator.mul, ce, v))])[0]
        if not bev:
            continue
        qv = sum(c * x * x for c, x in zip(coeffs, v))
        w = [2 * bev * x - qv * a for a, x in zip(e, v)]
        pt = ProjPointC._from_values(alg, [w[k] for k in order])
        if pt is None or pt in seen:
            continue
        seen.add(pt)
        points.append(pt)
    return points


def sampled_quadric_checks(alg, count=DEFAULT_SAMPLES, seed=DEFAULT_SEED,
                           rank_checks=DEFAULT_RANK_CHECKS,
                           transposition_checks=None):
    """Round-trip, trace, symmetry, base-locus and transposition identities
    on seeded quadric points; rank-one on the first rank_checks images."""
    fld = alg.field
    p = fld.p if isinstance(fld, PrimeField) else 0
    report = SweepReport("quadric-sampled", p, alg.cd.r, alg.n, "sampled",
                         0, 0)
    counts = report.counts
    counts.update(roundtrip=0, z2_images=0, base_points=0, rank_one=0,
                  transpositions=0, double_transpositions=0)
    if transposition_checks is None:
        transposition_checks = count
    pts = sample_quadric_points(alg, count, seed)
    report.scanned = len(pts)
    qf = q_form(alg)
    for idx, pt in enumerate(pts):
        if evaluate(qf, pt.flatten()):
            report.failures.append(f"point {idx}: sampled point off the quadric")
            continue
        z1_flag = in_z1(pt)
        sq_zero = half_space_square_zero(pt)
        if z1_flag != sq_zero:
            report.failures.append(f"point {idx}: in_z1 != (x(c)^2 = 0)")
        try:
            img = veronese(pt)
            if z1_flag:
                report.failures.append(f"point {idx}: in_z1 but map defined")
                continue
        except BasePointError:
            if not z1_flag:
                report.failures.append(f"point {idx}: base point but not in_z1")
            else:
                counts["base_points"] += 1
            continue
        if img.elem.trace():
            report.failures.append(f"point {idx}: image trace nonzero")
        if not img.elem.is_symmetric():
            report.failures.append(f"point {idx}: image not sigma_b-symmetric")
        if pt.last:
            back = veronese_inverse(img)
            if not projective_eq(back, pt):
                report.failures.append(f"point {idx}: round trip failed")
            else:
                counts["roundtrip"] += 1
        else:
            if not in_z2(img):
                report.failures.append(f"point {idx}: c_n = 0 image not in Z2")
            else:
                counts["z2_images"] += 1
        if idx < rank_checks:
            if img.elem.is_rank_one():
                counts["rank_one"] += 1
            else:
                report.failures.append(f"point {idx}: image fails rank-one")
        if idx < transposition_checks:
            try:
                t1 = transposition_map(pt)
                star = transposition_star(pt)
            except BasePointError:
                continue
            if not projective_eq(t1, star):
                report.failures.append(f"point {idx}: transposition != star formula")
            else:
                counts["transpositions"] += 1
            try:
                t2 = transposition_map(t1)
            except BasePointError:
                continue
            if not projective_eq(t2, pt):
                report.failures.append(f"point {idx}: double transposition moved the point")
            else:
                counts["double_transpositions"] += 1
    return report


def roundtrip_suite_case(p, r, n, budget=DEFAULT_BUDGET, samples=DEFAULT_SAMPLES,
                         seed=DEFAULT_SEED):
    """Exhaustive when the ambient space fits the budget or the quadric has
    no more points than the samples asked for, sampled otherwise."""
    alg = fp_algebra(p, r, n)
    space = projective_size(p, flat_dim(alg))
    if space <= budget or samples >= fp_projective_zero_count(q_form(alg)):
        return exhaustive_quadric_sweep(alg)
    return sampled_quadric_checks(alg, count=samples, seed=seed)


def z1_suite_case(p, r, n, budget=DEFAULT_BUDGET, samples=DEFAULT_SAMPLES,
                  seed=DEFAULT_SEED, split=True):
    alg = fp_algebra(p, r, n, split=split)
    space = projective_size(p, alg.cd.dim * (n - 1))
    if space <= budget:
        return exhaustive_z1_sweep(alg)
    return sampled_z1_checks(alg, count=samples, seed=seed)


def _zero_divisor(cd):
    """A nonzero norm-zero element, from an isotropic vector of the norm
    form (None when the norm is anisotropic)."""
    v = isotropic_vector_search(cd.norm_form)
    if v is None:
        return None
    return cd.element(v)


def sampled_z1_checks(alg, count=DEFAULT_SAMPLES, seed=DEFAULT_SEED):
    """Predicate-equivalence checks on random source points with scalar
    slot zero, plus constructed positive locus members built from zero
    divisors."""
    fld = alg.field
    cd, n = alg.cd, alg.n
    p = fld.p if isinstance(fld, PrimeField) else 0
    report = SweepReport("z1-sampled", p, cd.r, n, "sampled", 0, 0)
    counts = report.counts
    counts.update(checked=0, z1_members=0)
    rng = random.Random(seed)
    if isinstance(fld, PrimeField):
        draw = lambda: rng.randrange(fld.p)
    else:
        draw = lambda: Fraction(rng.randint(-4, 4))
    cases = []
    for _ in range(count):
        coords = [[draw() for _ in range(cd.dim)] for _ in range(n - 1)]
        if all(all(not fld.element(x) for x in blk) for blk in coords):
            continue
        cases.append([cd.element(blk) for blk in coords])
    z = _zero_divisor(cd)
    if z is not None and cd.r >= 1:
        zero = cd.zero()
        cases.append([z] + [zero] * (n - 2))
        cases.append([z, z] + [zero] * (n - 3))
    for idx, cparts in enumerate(cases):
        pt = ProjPointC(alg, cparts, 0)
        report.scanned += 1
        member = in_z1(pt)
        if member != half_space_square_zero(pt):
            report.failures.append(f"case {idx}: in_z1 != (x(c)^2 = 0)")
        raised = False
        try:
            veronese(pt)
        except BasePointError:
            raised = True
        if member != raised:
            report.failures.append(f"case {idx}: in_z1 != BasePointError")
        counts["checked"] += 1
        if member:
            counts["z1_members"] += 1
    if z is not None and cd.r >= 1 and counts["z1_members"] == 0:
        report.failures.append("constructed zero-divisor members not detected")
    return report


def z1_rational_box_search(alg, bound=1):
    """Exhaustive box search for base-locus members over Q: every block of
    a member must be norm-zero, so enumerate norm-zero block values in the
    box and combine.  Returns the number of members found (0 proves the
    box empty; with an anisotropic norm the locus is empty outright)."""
    cd, n = alg.cd, alg.n
    import itertools
    rng = range(-bound, bound + 1)
    norm_zero = []
    for tup in itertools.product(rng, repeat=cd.dim):
        e = cd.element(tup)
        if e.norm() == 0:
            norm_zero.append(e)
    nonzero = [e for e in norm_zero if e]
    if not nonzero:
        return 0
    found = 0
    for combo in itertools.product(norm_zero, repeat=n - 1):
        if all(not c for c in combo):
            continue
        pt = ProjPointC(alg, list(combo), 0)
        if in_z1(pt):
            found += 1
    return found
