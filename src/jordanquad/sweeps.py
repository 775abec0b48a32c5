"""Verification sweeps for the rank-one map: exhaustive over small F_p
spaces (kernel-backed), seeded stereographic sampling elsewhere.

Exhaustive sweeps cross-check their counters against exact cardinalities:
the number of points of an odd-dimensional quadric over F_p, and the base
locus count predicted by its Tate profile evaluated at p (the locus is a
split homogeneous variety whenever the composition algebra splits, and has
no rational points at all when the norm form is anisotropic).

The sampled path goes through the projective points and maps of
birational rather than the kernels, so the two routes validate each
other.  It reads the points' and images' canonical values and builds no
scalar object for them; rank-one checks ride on a subsample of images,
tested on their values too: the entries of x^# at n = 3, and at n >= 4 a
rank bound on the 2^r n square matrix of left multiplication by x.  Z1
membership is whether the map raised, compared with the independent
x(c)^2 = 0; the transposition is column n-1 of the image already built,
compared with the star formula, which forms its products itself, and the
double transposition applies the star formula to it.
"""

import itertools
import operator
import random
from dataclasses import dataclass, field as _field
from fractions import Fraction

from . import _fpcore_py, motives
from ._fpcore_py import projective_size
from .birational import (ProjPointC, _column_point, half_space_square_zero,
                         in_z1, in_z2, on_quadric, projective_eq, q_form,
                         transposition_star, veronese, veronese_inverse)
from .cayley_dickson import CDAlgebra
from .errors import BasePointError, SamplingError
from .jordan import JordanAlgebra, _rank_one_values, _symmetric_values
from .quadform import (QuadForm, fp_projective_zero_count, is_isotropic,
                       isotropic_vector_search, tensor)
from .scalars import PrimeField

DEFAULT_BUDGET = 20000
# Largest exhaustive-sweep budget verify.run_suite accepts, ten times the
# README's example.  The sweeps walk each distinct state of their block
# walk once, not each point.  On the birational spaces of a shared 2-core
# x86-64 VM the quadric sweep took the 1.9M points of (p, r, n) =
# (11, 1, 4), the 6.7M of (7, 2, 3), the 0.8M of (3, 2, 4) and the
# 64.6M of (3, 1, 9) in 0.4-1.7 ms each; the slowest is (3, 3, 3),
# whose states do not merge, 64.6M points in 57-82 ms, so a sweep at
# this ceiling takes well under a second there.  The z1 sweep, which
# counts its last block's null vectors, ran from 380 million points/s
# on the base locus of (3, 3, 3) (56-58 ms) to 75 billion on that of
# (3, 1, 9).
MAX_BUDGET = 10 ** 8
DEFAULT_SAMPLES = 120
# Largest sample count verify.run_suite accepts.  A case samples that many
# points, or sweeps its quadric when it has no more points than that, so an
# unbounded count would also bypass MAX_BUDGET.  On the same VM, timed in
# one process, `verify z1` took 0.16-0.17 s at 1000 samples and 1.0-1.5 s
# at 10^4, `verify birational` 0.8-1.0 s at 1000.
MAX_SAMPLES = 10 ** 4
DEFAULT_RANK_CHECKS = 6
DEFAULT_SEED = 1789


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


def z1_expected_count(alg):
    """Exact number of F_p-points of the base locus: zero when the norm
    form is anisotropic (r = 0, where it is <1>, or r = 1 with a
    non-square parameter), else the Tate profile evaluated at p."""
    if not is_isotropic(alg.cd.norm_form):
        return 0
    return motives.decompose_z1(alg.cd.r, alg.n).profile().eval_at(alg.field.p)


def xj_expected_count(alg):
    """Exact number of F_p-points of X(J), the traceless rank-one points of
    P(J), from the classical closed forms, which share nothing with the
    motives: for r = 0 the quadric <b> in P^{n-1}; for r = 1 split the
    point-hyperplane incidence variety, [n]_p [n-1]_p, and non-split the
    Hermitian variety of PG(n-1, p^2) (Bose-Chakravarti 1966); for r = 2
    the isotropic 2-planes of a symplectic 2n-space.  ValueError at r = 3,
    which needs the Poincare polynomial of F4."""
    p, r, n = alg.field.p, alg.cd.r, alg.n
    if r == 0:
        return fp_projective_zero_count(QuadForm(alg.field, alg.b))
    if r == 1 and is_isotropic(alg.cd.norm_form):
        return (p ** n - 1) * (p ** (n - 1) - 1) // (p - 1) ** 2
    if r == 1:
        return (p ** n - (-1) ** n) * (p ** (n - 1) - (-1) ** (n - 1)) // (p * p - 1)
    if r == 2:
        return (p ** (2 * n) - 1) * (p ** (2 * n - 2) - 1) // ((p - 1) * (p * p - 1))
    raise ValueError("no classical closed form for #X(J) at r = 3")


def kernel_inputs(alg):
    """(p, b, gamma) of the sweep kernels: the prime, the diagonal b and the
    structure-constant table of the composition algebra as m rows of m
    plain values, fresh lists that share nothing with the algebra."""
    return alg.field.p, alg.field.unwrap(alg.b)[0], [list(row) for row in alg.cd._gamma_v]


@dataclass
class SweepReport:
    kind: str
    mode: str
    space: int
    scanned: int
    counts: dict = _field(default_factory=dict)
    expected: dict = _field(default_factory=dict)
    failures: list = _field(default_factory=list)

    @property
    def ok(self):
        return not self.failures


_QUADRIC_COUNTERS = ("scanned", "on_quadric", "base_points", "zslice_points",
                     "roundtrip_checked", "roundtrip_fail", "sym_fail",
                     "trace_fail", "diag_fail")
_Z1_COUNTERS = ("scanned", "z1_points", "equiv_fail")


def _kernel_report(kind, alg, names, raw, N, oracle):
    """The report of a complete kernel sweep of P^{N-1}: each nonzero
    `*_fail` counter is a failure, and so is each count that differs from
    the exact one in oracle()."""
    p = alg.field.p
    counts = dict(zip(names, raw, strict=True))
    space = projective_size(p, N)
    expected = {"scanned": space, **oracle()}
    failures = [f"{key} = {v}" for key, v in counts.items() if key.endswith("_fail") and v]
    failures += [f"{key}: got {counts[key]}, expected {want}"
                 for key, want in expected.items() if counts[key] != want]
    return SweepReport(kind, "exhaustive", space, counts["scanned"], counts, expected, failures)


def exhaustive_quadric_sweep(alg):
    """Complete kernel sweep of P(C^{n-1} x k) over F_p with exact count
    oracles."""
    def oracle():
        exp_quadric = fp_projective_zero_count(q_form(alg))
        exp_base = z1_expected_count(alg)
        bprime = QuadForm(alg.field, alg.b[:-1])
        exp_slice = fp_projective_zero_count(tensor(alg.cd.norm_form, bprime)) - exp_base
        return {"on_quadric": exp_quadric, "base_points": exp_base,
                "zslice_points": exp_slice,
                "roundtrip_checked": exp_quadric - exp_base - exp_slice}

    raw = _fpcore_py.quadric_sweep(*kernel_inputs(alg))
    return _kernel_report("quadric", alg, _QUADRIC_COUNTERS, raw, flat_dim(alg), oracle)


def exhaustive_z1_sweep(alg):
    """Complete kernel sweep of P(C^{n-1}) comparing the two base-locus
    predicates pointwise, with the exact point-count oracle."""
    raw = _fpcore_py.z1_sweep(*kernel_inputs(alg))
    return _kernel_report("z1", alg, _Z1_COUNTERS, raw, flat_dim(alg) - 1,
                          lambda: {"z1_points": z1_expected_count(alg)})


# ---------------------------------------------------------------------------
# Seeded sampling through the projective points of birational


def flat_dim(alg):
    return alg.cd.dim * (alg.n - 1) + 1


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
                           rank_checks=DEFAULT_RANK_CHECKS):
    """Round-trip, trace, symmetry, base-locus and transposition identities
    on seeded quadric points; rank-one on the first rank_checks images.
    Every sampled point off the base locus gets the transposition checks.
    Every test reads the points' and images' values, so no scalar object
    is built for them."""
    fld, n, swapped = alg.field, alg.n, alg.swap_last_two()
    report = SweepReport("quadric-sampled", "sampled", 0, 0)
    counts = report.counts
    counts.update(roundtrip=0, z2_images=0, base_points=0, rank_one=0,
                  transpositions=0, double_transpositions=0)
    pts = sample_quadric_points(alg, count, seed)
    report.scanned = len(pts)
    for idx, pt in enumerate(pts):
        if not on_quadric(pt):
            report.failures.append(f"point {idx}: sampled point off the quadric")
            continue
        try:
            img = veronese(pt)
        except BasePointError:
            img = None
        if (img is None) != half_space_square_zero(pt):
            report.failures.append(f"point {idx}: in_z1 != (x(c)^2 = 0)")
        if img is None:
            counts["base_points"] += 1
            continue
        rows = img._rows()
        if fld.reduce([sum(rows[i][i][0] for i in range(n))])[0]:
            report.failures.append(f"point {idx}: image trace nonzero")
        if not _symmetric_values(alg, rows):
            report.failures.append(f"point {idx}: image not sigma_b-symmetric")
        if pt.vals[-1]:
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
            if _rank_one_values(alg, rows):
                counts["rank_one"] += 1
            else:
                report.failures.append(f"point {idx}: image fails rank-one")
        t1 = _column_point(img, n - 2, swapped)
        if t1 is None:
            continue
        try:
            star = transposition_star(pt)
        except BasePointError:
            continue
        if not projective_eq(t1, star):
            report.failures.append(f"point {idx}: transposition != star formula")
        else:
            counts["transpositions"] += 1
        try:
            t2 = transposition_star(t1)
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
    """The plain values of a nonzero norm-zero element, from an isotropic
    vector of the norm form (None when the norm is anisotropic)."""
    v = isotropic_vector_search(cd.norm_form)
    if v is None:
        return None
    return cd.field.unwrap(v)[0]


def sampled_z1_checks(alg, count=DEFAULT_SAMPLES, seed=DEFAULT_SEED):
    """Predicate-equivalence checks on random source points with scalar
    slot zero, plus constructed positive locus members built from zero
    divisors.  Each case point is built from its drawn values."""
    fld = alg.field
    cd, n = alg.cd, alg.n
    report = SweepReport("z1-sampled", "sampled", 0, 0)
    counts = report.counts
    counts.update(checked=0, z1_members=0)
    rng = random.Random(seed)
    if isinstance(fld, PrimeField):
        draw = lambda: rng.randrange(fld.p)
    else:
        draw = lambda: rng.randint(-4, 4)
    cases = []
    for _ in range(count):
        pt = ProjPointC._from_values(alg, [draw() for _ in range(cd.dim * (n - 1))] + [0])
        if pt is not None:
            cases.append(pt)
    z = _zero_divisor(cd)
    if z is not None and cd.r >= 1:
        zero = [0] * cd.dim
        cases.append(ProjPointC._from_values(alg, z + zero * (n - 2) + [0]))
        cases.append(ProjPointC._from_values(alg, z + z + zero * (n - 3) + [0]))
    for idx, pt in enumerate(cases):
        report.scanned += 1
        member = in_z1(pt)
        if member != half_space_square_zero(pt):
            report.failures.append(f"case {idx}: in_z1 != (x(c)^2 = 0)")
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
