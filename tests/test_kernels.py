"""The mod-p kernels against the exact cardinality oracles on complete
sweeps, and against per-point evaluators on true and corrupted tables,
complete and cut at a limit."""

import itertools
import math
import random
import time

import pytest

from jordanquad import _fpcore_py, fpkernels, motives, sweeps
from jordanquad.birational import ProjPointC, in_z1, q_form
from jordanquad.quadform import (QuadForm, evaluate, fp_projective_zero_count,
                                 isotropic_vector_search, tensor)
from jordanquad.scalars import PrimeField


CONFIGS = [(5, 0, 3), (5, 0, 4), (5, 1, 3), (3, 1, 4), (3, 2, 3), (5, 2, 3)]


def test_point_enumeration_counts():
    for p, N in [(3, 2), (5, 3), (7, 4)]:
        pts = [tuple(pt) for pt in _fpcore_py._points(p, N)]
        assert len(pts) == sweeps.projective_size(p, N)
        assert len(set(pts)) == len(pts)
        # canonical: first nonzero coordinate is 1
        for pt in pts:
            lead = next(x for x in pt if x)
            assert lead == 1


def test_pure_isotropic_vector_matches_bruteforce():
    for p in (3, 5, 7):
        for coeffs in [(1, 1), (1, p - 1), (1, 2, 2), (2,), (1, 1, 1, 1)]:
            got = _fpcore_py.isotropic_vector(p, list(coeffs))
            brute = None
            for v in itertools.product(range(p), repeat=len(coeffs)):
                if any(v) and sum(c * x * x for c, x in zip(coeffs, v)) % p == 0:
                    lead = next(x for x in v if x)
                    if lead == 1:
                        brute = v
                        break
            if brute is None:
                assert got is None
            else:
                assert got is not None
                f = QuadForm(PrimeField(p), coeffs)
                assert evaluate(f, got) == 0


def test_isotropic_vector_is_first_zero_of_the_walk():
    anisotropic = 0
    for p in (3, 5, 7, 11):
        for coeffs in [(1,), (p,), (1, 1), (1, p - 1), (1, 2), (2, 1), (0, 1),
                       (1, 0), (1, 1, 1), (3, 1, 4), (2, 3, 0), (1, 2, 3, 4),
                       (5, 6, 7, 8, 9)]:
            want = next((list(v) for v in _fpcore_py._points(p, len(coeffs))
                         if sum(c * x * x for c, x in zip(coeffs, v)) % p == 0),
                        None)
            assert _fpcore_py.isotropic_vector(p, list(coeffs)) == want, (p, coeffs)
            anisotropic += want is None
    assert anisotropic >= 8


def test_isotropic_vector_with_zero_coefficients_matches_bruteforce():
    """Forms with a coefficient divisible by p, each coefficient shifted by
    a multiple of p: the first zero of an independent walk by leading
    position, then the trailing coordinates in lexicographic order."""
    def first_zero(p, w):
        for lead in range(len(w)):
            for tail in itertools.product(range(p), repeat=len(w) - lead - 1):
                v = [0] * lead + [1, *tail]
                if sum(c * x * x for c, x in zip(w, v)) % p == 0:
                    return v
        return None

    checked = 0
    for p, top in ((3, 5), (5, 4), (7, 3)):
        for N in range(1, top + 1):
            for w in itertools.product(range(p), repeat=N):
                if all(w):
                    continue
                shifted = [c + p * (i - 1) for i, c in enumerate(w)]
                assert _fpcore_py.isotropic_vector(p, shifted) == first_zero(p, w), (p, w)
                checked += 1
    assert checked == 882


def test_isotropic_vector_with_zero_coefficients_at_large_p():
    """A zero coefficient leaves no walk of length p: at p = 1,000,003 each
    answer comes at once, the same first canonical zero."""
    p = 1_000_003
    x = _fpcore_py._sqrt_mod(-pow(2, -1, p), p)
    for coeffs, want in (([1, 0, 1], [0, 1, 0]), ([1, 1, 0], [0, 0, 1]),
                         ([1, 2, 0, 0], [1, x, 0, 0])):
        t0 = time.perf_counter()
        assert _fpcore_py.isotropic_vector(p, coeffs) == want
        assert time.perf_counter() - t0 < 0.1, coeffs


def test_sqrt_mod_matches_bruteforce():
    """Euler's criterion and Tonelli-Shanks against a table of squares, on
    primes with p - 1 divisible by 2 up to 2^8."""
    for p in (3, 5, 7, 13, 17, 41, 97, 193, 257):
        least = {}
        for x in range(p):
            least.setdefault(x * x % p, x)
        assert [_fpcore_py._sqrt_mod(a, p) for a in range(-p, p)] == [
            least.get(a % p) for a in range(-p, p)]


def test_pure_isotropic_vector_at_large_p():
    """A square root per fibre: no table of size p, so p near 2^31 answers
    at once, with the vectors of the walk."""
    p, x0 = 2 ** 31 - 1, 2 ** 17
    c = -pow(x0 * x0, -1, p) % p
    assert _fpcore_py.isotropic_vector(p, [1, c]) == [1, x0]
    p = 10_000_019
    v = isotropic_vector_search(QuadForm(PrimeField(p), [1, 1, 1]))
    assert [x.v for x in v] == [1, 1, 2824754]


def _head_zeros(p, w, limit):
    """Zeros of sum w_i c_i^2 among the first `limit` < p^2 canonical
    points: the fibres (1, 0, .., 0, k, x) over x in F_p, k = 0, 1, ...
    A full fibre holds 1 + (v/p) zeros, v = -(w_0 + w_{-2} k^2) / w_{-1},
    by Euler's criterion; the fibre the limit cuts is counted point by
    point."""
    full, rest = divmod(limit, p)
    count = 0
    for k in range(full):
        v = -(w[0] + w[-2] * k * k) * pow(w[-1], -1, p) % p
        count += 1 + {1: 1, p - 1: -1}.get(pow(v, (p - 1) // 2, p), 0)
    return count + sum((w[0] + w[-2] * full * full + w[-1] * x * x) % p == 0
                       for x in range(rest))


@pytest.mark.parametrize("p", [2097143, 2097169])
@pytest.mark.parametrize("r", [0, 1])
def test_pure_quadric_sweep_past_2_21(p, r):
    """At p around 2^21 a short sweep takes a square root per fibre; its
    first zeros are those of the fibres counted by Euler's criterion."""
    alg = sweeps.fp_algebra(p, r, 3)
    ki = sweeps.kernel_inputs(alg)
    b, pf = ki[1], [c.v for c in alg.cd.norm_form.coeffs]
    w = [bi * ft for bi in b[:-1] for ft in pf] + [b[-1]]
    raw = _fpcore_py.quadric_sweep(*ki, 3 * p + 7)
    assert raw[:2] == (3 * p + 7, _head_zeros(p, w, 3 * p + 7))
    assert not any(raw[5:]), raw


def test_pure_kernels_reduce_big_integers():
    """b and gamma shifted by multiples of p beyond 64 bits, of either
    sign, give the counters of the reduced inputs."""
    p, b, gamma = sweeps.kernel_inputs(sweeps.fp_algebra(5, 1, 3))
    shifts = (10 ** 30, -(2 ** 64), 2 ** 70, -(10 ** 25))
    big_b = [x + p * shifts[i % 4] for i, x in enumerate(b)]
    big_gamma = [x + p * shifts[i % 4] for i, x in enumerate(gamma)]
    assert all(abs(x) >= 2 ** 64 for x in big_b + big_gamma)
    for name in ("quadric_sweep", "z1_sweep"):
        want = getattr(_fpcore_py, name)(p, b, gamma)
        assert getattr(_fpcore_py, name)(p, big_b, big_gamma) == want, name


@pytest.mark.parametrize("kernels", [_fpcore_py], ids=["pure"])
def test_sweeps_reject_zero_b_and_bad_gamma(kernels):
    """n and m are read off b and gamma, so a gamma that is no m x m table
    is an error, as is a b_i = 0 mod p, which would make the symmetry and
    base-locus checks vacuous."""
    p, b, gamma = sweeps.kernel_inputs(sweeps.fp_algebra(7, 1, 3))
    for sweep in (kernels.quadric_sweep, kernels.z1_sweep):
        for bad_b in ([1, 0, 6], [1, 2, -7], [14, 2, 6]):
            with pytest.raises(ValueError, match="b_i"):
                sweep(p, bad_b, gamma)
        for size in (2, 9, 256):
            with pytest.raises(ValueError, match="gamma"):
                sweep(p, b, [1] * size)


@pytest.mark.parametrize("kernels", [_fpcore_py], ids=["pure"])
@pytest.mark.parametrize("p", [1, 9, 15, 2 ** 31 + 11])
def test_kernels_reject_a_modulus_that_is_not_an_odd_prime(kernels, p):
    """The kernels check p before they build anything: the per-fibre checks
    of the quadric sweep rest on every nonzero residue being a unit, and
    its root table holds p entries."""
    _, b, gamma = sweeps.kernel_inputs(sweeps.fp_algebra(5, 1, 3))
    msg = "p must be an odd prime below 2"
    with pytest.raises(ValueError, match=msg):
        kernels.isotropic_vector(p, [1, 1, 1])
    for sweep in (kernels.quadric_sweep, kernels.z1_sweep):
        with pytest.raises(ValueError, match=msg):
            sweep(p, [1, 1, 1], gamma, 50)
        with pytest.raises(ValueError, match=msg):
            sweep(p, b, gamma)


def test_kernel_report_rejects_a_tuple_of_the_wrong_length():
    alg = sweeps.fp_algebra(5, 1, 3)
    for raw in ((1, 0), (1, 0, 0, 0)):
        with pytest.raises(ValueError):
            sweeps._kernel_report("z1", alg, sweeps._Z1_COUNTERS, raw, N=4,
                                  limit=1, oracle=dict)


@pytest.mark.parametrize("kernels", [_fpcore_py], ids=["pure"])
def test_every_failure_counter_fires_on_a_corrupted_gamma(kernels):
    """A wrong structure constant breaks the identities each `*_fail`
    counter tests, so each one can fail; the sweeps give these tuples, one
    counter for each name in sweeps."""
    p, b, gamma = sweeps.kernel_inputs(sweeps.fp_algebra(5, 1, 3))
    m = 2
    fired = set()
    for entry, want in ((0, (781, 156, 0, 36, 120, 120, 0, 120, 0)),
                        (m, (781, 156, 0, 36, 120, 114, 138, 0, 200))):
        bad = list(gamma)
        bad[entry] = 2
        raw = kernels.quadric_sweep(p, b, bad)
        assert raw == want, entry
        fired |= {k for k, v in zip(sweeps._QUADRIC_COUNTERS, raw, strict=True) if v}
    p, b, gamma = sweeps.kernel_inputs(sweeps.fp_algebra(3, 2, 3))
    bad = list(gamma)
    bad[1] = bad[11] = 0
    raw = kernels.z1_sweep(p, b, bad)
    assert raw == (3280, 80, 48)
    fired |= {k for k, v in zip(sweeps._Z1_COUNTERS, raw, strict=True) if v}
    assert fired >= {k for k in sweeps._QUADRIC_COUNTERS + sweeps._Z1_COUNTERS
                     if k.endswith("_fail")}


def _mul_conj(p, gamma, x, y):
    """x conj(y) by the table gamma, term by term."""
    m = len(x)
    out = [0] * m
    for s, t in itertools.product(range(m), repeat=2):
        out[s ^ t] += x[s] * (-y[t] if t else y[t]) * gamma[s * m + t]
    return [v % p for v in out]


def _conj(p, v):
    return [v[0]] + [-x % p for x in v[1:]]


def _quadric_sweep_per_point(p, b, gamma, limits):
    """The quadric sweep evaluated point by point, as {limit: counters} for
    each limit in limits: every canonical point is taken in turn, the
    matrix mat[i][j] = c_i conj(c_j) b_j of each point on the quadric is
    built in full, and each check is made on that matrix."""
    n, m = len(b), math.isqrt(len(gamma))
    N = m * (n - 1) + 1
    pf = [gamma[0]] + [-gamma[t * m + t] for t in range(1, m)]
    w = [b[i] * pf[t] for i in range(n - 1) for t in range(m)] + [b[-1]]
    counts = dict.fromkeys(sweeps._QUADRIC_COUNTERS, 0)
    out = {}
    for c in _fpcore_py._points(p, N):
        if counts["scanned"] in limits:
            out[counts["scanned"]] = tuple(counts.values())
        counts["scanned"] += 1
        if sum(wi * x * x for wi, x in zip(w, c)) % p:
            continue
        counts["on_quadric"] += 1
        blocks = [list(c[i * m:(i + 1) * m]) for i in range(n - 1)]
        blocks.append([c[-1]] + [0] * (m - 1))
        mat = [[[v * b[j] % p for v in _mul_conj(p, gamma, ci, cj)]
                for j, cj in enumerate(blocks)] for ci in blocks]
        counts["diag_fail"] += sum(any(mat[i][i][1:]) for i in range(n))
        counts["trace_fail"] += sum(mat[i][i][0] for i in range(n)) % p != 0
        counts["sym_fail"] += not all(
            [b[i] * v % p for v in mat[i][j]] == [b[j] * v % p for v in _conj(p, mat[j][i])]
            for i in range(n) for j in range(i + 1, n))
        if not any(v for row in mat for e in row for v in e):
            counts["base_points"] += 1
        elif c[-1] == 0:
            counts["zslice_points"] += 1
        else:
            counts["roundtrip_checked"] += 1
            lam = b[-1] * c[-1]
            counts["roundtrip_fail"] += any(
                mat[i][n - 1] != [lam * v % p for v in blocks[i]] for i in range(n))
    return {lim: out.get(lim, tuple(counts.values())) for lim in limits}


def _z1_sweep_per_point(p, b, gamma, limits):
    """The base-locus sweep evaluated point by point, as {limit: counters}
    for each limit in limits: every canonical point of P(C^{n-1}) is on
    the locus when its norms c_i conj(c_i) and its pairs c_i conj(c_j),
    i < j, are all zero, and fails there when its corner
    sum_k b_k conj(c_k) c_k is not."""
    n, m = len(b), math.isqrt(len(gamma))
    counts = dict.fromkeys(sweeps._Z1_COUNTERS, 0)
    out = {}
    for c in _fpcore_py._points(p, m * (n - 1)):
        if counts["scanned"] in limits:
            out[counts["scanned"]] = tuple(counts.values())
        counts["scanned"] += 1
        blocks = [list(c[i * m:(i + 1) * m]) for i in range(n - 1)]
        if any(any(_mul_conj(p, gamma, ci, cj))
               for i, ci in enumerate(blocks) for cj in blocks[i:]):
            continue
        counts["z1_points"] += 1
        terms = [_mul_conj(p, gamma, _conj(p, ck), _conj(p, ck)) for ck in blocks]
        counts["equiv_fail"] += any(
            sum(bk * term[t] for bk, term in zip(b, terms)) % p for t in range(m))
    return {lim: out.get(lim, tuple(counts.values())) for lim in limits}


# (p, m, n) of the corrupted-table agreement test: every composition
# dimension, complete spaces of 121 to 9841 points
CORRUPTED_SHAPES = [(3, 1, 3), (7, 1, 3), (5, 1, 4), (3, 1, 6), (3, 2, 3), (5, 2, 3),
                    (3, 2, 4), (3, 4, 2), (3, 4, 3), (3, 8, 2), (5, 1, 3)]


def _block_boundaries(p, m, n, rng):
    """Indices of points of P(C^{n-1}) on the edges of the pure sweeps'
    block walk: the first point of each lead block i0 and, for each block
    j from the lead on, the points where it first steps and where it
    takes a random step k, the blocks after it rolling over from p - 1 to
    0.  As a z1 limit the index f stops the walk just before point f; as a
    quadric limit p f stops it just before fibre f."""
    starts = set()
    f0 = 0
    for i0 in range(n - 1):
        points = (p ** m - 1) // (p - 1) * p ** (m * (n - 2 - i0))
        starts.add(f0)
        for j in range(i0, n - 1):
            stride = p ** (m * (n - 2 - j))     # points per step of block j
            if points > stride:
                starts |= {f0 + k * stride for k in (1, rng.randrange(1, points // stride))}
        f0 += points
    return sorted(starts)


def _around(limits):
    """Each limit exactly and one point either side."""
    return sorted({lim + e for lim in limits for e in (-1, 0, 1) if lim + e >= 0})


def test_quadric_sweep_matches_per_point_evaluator_on_corrupted_tables():
    """On random tables and b, zero entries included, the quadric and z1
    sweeps give the counters of their per-point evaluations, complete,
    with limits that cut a fibre and with limits on the edges of their
    block walk."""
    rng = random.Random(14)
    fired = set()
    for p, m, n in CORRUPTED_SHAPES:
        r = m.bit_length() - 1
        _, _, table = sweeps.kernel_inputs(sweeps.fp_algebra(p, r, 3))
        N = m * (n - 1) + 1
        space = sweeps.projective_size(p, N)
        for draw in range(3):
            # draw 0 keeps the true table, draw 1 changes 1 to m entries and
            # gamma_00, draw 2 1 to m entries
            gamma = list(table)
            keys = rng.sample(range(m * m), rng.randint(1, m)) + [0] * (draw == 1)
            for k in keys if draw else ():
                gamma[k] = rng.choice((0, rng.randrange(2, p)))
            b = [rng.randrange(1, p) for _ in range(n)]
            fibre = rng.randrange(space // p)
            edges = _block_boundaries(p, m, n, rng)
            for name, names, per_point, limits in (
                    ("quadric_sweep", sweeps._QUADRIC_COUNTERS, _quadric_sweep_per_point,
                     (-1, p * fibre + 3, space - 1, *_around(p * f for f in edges))),
                    ("z1_sweep", sweeps._Z1_COUNTERS, _z1_sweep_per_point,
                     (-1, fibre, sweeps.projective_size(p, N - 1) - 1, *_around(edges)))):
                for limit, want in per_point(p, b, gamma, limits).items():
                    got = getattr(_fpcore_py, name)(p, b, gamma, limit)
                    assert got == want, (name, p, m, n, b, gamma, limit)
                    fired |= {k for k, v in zip(names, got) if v}
    assert fired == set(sweeps._QUADRIC_COUNTERS + sweeps._Z1_COUNTERS)


def _kernel_point(alg, c, last):
    m = alg.cd.dim
    return ProjPointC(alg, [c[i * m:(i + 1) * m] for i in range(alg.n - 1)], last)


def _point_counts(alg, kind, points):
    """[on_quadric, base_points] or [z1_points] of a run of canonical
    points, each point tested on its own with the object-level predicates."""
    if kind == "z1":
        return [sum(in_z1(_kernel_point(alg, c, 0)) for c in points)]
    qf = q_form(alg)
    counts = [0, 0]
    for c in points:
        pt = _kernel_point(alg, c[:-1], c[-1])
        if evaluate(qf, pt.flatten()) == 0:
            counts[0] += 1
            counts[1] += in_z1(pt)
    return counts


def _reference(alg, kind, limit):
    """(scanned, on_quadric, base_points) or (scanned, z1_points) of the
    first `limit` canonical points.  Up to half the space, the points below
    the limit are tested one by one.  Past half, the points at or above it
    are, and their counts are subtracted from the exact complete counts."""
    p, m, n = alg.field.p, alg.cd.dim, alg.n
    N = m * (n - 1) + (kind == "quadric")
    space = sweeps.projective_size(p, N)
    limit = min(limit, space)
    if 2 * limit <= space:
        counts = _point_counts(alg, kind, itertools.islice(
            _fpcore_py._points(p, N), limit))
    else:
        cut = _point_counts(alg, kind, itertools.islice(
            _fpcore_py._points(p, N), limit, None))
        full = [sweeps.z1_expected_count(alg)]
        if kind == "quadric":
            full.insert(0, fp_projective_zero_count(q_form(alg)))
        counts = [f - c for f, c in zip(full, cut)]
    return (limit, *counts)


PARTIAL_CONFIGS = [(5, 2, 3, True), (3, 1, 4, True), (3, 1, 4, False),
                   (5, 1, 3, True), (5, 1, 3, False), (7, 1, 3, False),
                   (3, 2, 3, True), (5, 0, 4, True)]


@pytest.mark.parametrize("p, r, n, split", PARTIAL_CONFIGS)
def test_partial_sweeps_match_per_point_reference(p, r, n, split):
    alg = sweeps.fp_algebra(p, r, n, split=split)
    ki = sweeps.kernel_inputs(alg)
    m = alg.cd.dim
    for kind, N in (("quadric", m * (n - 1) + 1), ("z1", m * (n - 1))):
        space = sweeps.projective_size(p, N)
        limits = {0, 1, p - 1, p, p + 1, 17, 400, 3 * p + 3, 7 * p + 3, 80 * p + 3,
                  space - 1, space, space + 5}
        if space <= 10 ** 4:
            limits.add(space // 3)      # cuts between the blocks after a lead
        for limit in sorted(limits):
            if kind == "quadric":
                raw = _fpcore_py.quadric_sweep(*ki, limit)
                got, fails = raw[:3], raw[5:]
            else:
                raw = _fpcore_py.z1_sweep(*ki, limit)
                got, fails = raw[:2], raw[2:]
            assert got == _reference(alg, kind, limit), (kind, limit)
            assert not any(fails), (kind, limit, raw)


def test_small_limit_builds_no_large_table(monkeypatch):
    """fp_algebra(7, 3, 3) has 7^8 blocks; the first 1000 points need only
    a few of them tabulated."""
    alg = sweeps.fp_algebra(7, 3, 3)
    ki = sweeps.kernel_inputs(alg)
    calls = [0]
    conj_product = _fpcore_py._conj_product

    def counting_product(*args):
        mul = conj_product(*args)

        def counting(x, y):
            calls[0] += 1
            if calls[0] > 10 * 1000:
                raise AssertionError("the limit did not bound the tables")
            return mul(x, y)

        return counting

    monkeypatch.setattr(_fpcore_py, "_conj_product", counting_product)
    assert _fpcore_py.z1_sweep(*ki, 1000) == (*_reference(alg, "z1", 1000), 0)
    assert _fpcore_py.quadric_sweep(*ki, 1000)[:3] == _reference(alg, "quadric", 1000)


def test_short_pure_sweeps_at_large_p():
    """A sweep of 100 points at p = 1,000,003 builds nothing of size p: the
    quadric sweep takes a square root per fibre instead of a table of the
    (p - 1)/2 squares, and the base-locus walk stores no range(p)."""
    import tracemalloc
    three = (1_000_003, [1, 2, 1_000_002], [1, 1, 1, 1], 100)
    # five blocks of one coordinate: every level of the quadric sweep's
    # block walk must stop at the limit without walking its p values
    five = (1_000_003, [1, 2, 3, 4, 5], [1], 100)
    for sweep, args, want in (
            (_fpcore_py.quadric_sweep, three, (100, 1, 0, 0, 1, 0, 0, 0, 0)),
            (_fpcore_py.z1_sweep, three, (100, 0, 0)),
            (_fpcore_py.quadric_sweep, five, (100, 0, 0, 0, 0, 0, 0, 0, 0))):
        t0 = time.perf_counter()
        assert sweep(*args) == want
        assert time.perf_counter() - t0 < 0.5, (sweep.__name__, args)
        tracemalloc.start()
        try:
            sweep(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (sweep.__name__, args, peak)


def test_short_quadric_sweep_roots_match_table(monkeypatch):
    """Below (p - 1)/2 fibres the quadric sweep takes square roots; with the
    table put in their place every counter is the same."""
    cases = [(31, 0, 3), (29, 1, 3), (23, 2, 3), (19, 1, 4)]
    limits = {}
    for p, r, n in cases:
        ki = sweeps.kernel_inputs(sweeps.fp_algebra(p, r, n))
        limits[p] = [(L, _fpcore_py.quadric_sweep(*ki, L))
                     for L in range(0, p * (p - 1) // 2, 5)]
    monkeypatch.setattr(_fpcore_py, "_root_by_sqrt", _fpcore_py._root_table)
    for p, r, n in cases:
        ki = sweeps.kernel_inputs(sweeps.fp_algebra(p, r, n))
        assert [(L, _fpcore_py.quadric_sweep(*ki, L)) for L, _ in limits[p]] == limits[p]


def test_quadric_sweep_oracles_pure():
    """Complete sweeps against the exact counting oracles that
    sweeps.exhaustive_*_sweep check: every counter of both sweeps."""
    for p, r, n in CONFIGS:
        alg = sweeps.fp_algebra(p, r, n)
        ki = sweeps.kernel_inputs(alg)
        N = alg.cd.dim * (n - 1) + 1
        on_quadric = fp_projective_zero_count(q_form(alg))
        base = sweeps.z1_expected_count(alg)
        zslice = fp_projective_zero_count(
            tensor(alg.cd.norm_form, QuadForm(alg.field, alg.b[:-1]))) - base
        assert dict(zip(sweeps._QUADRIC_COUNTERS, _fpcore_py.quadric_sweep(*ki))) == {
            "scanned": sweeps.projective_size(p, N), "on_quadric": on_quadric,
            "base_points": base, "zslice_points": zslice,
            "roundtrip_checked": on_quadric - base - zslice, "roundtrip_fail": 0,
            "sym_fail": 0, "trace_fail": 0, "diag_fail": 0}, (p, r, n)
        assert _fpcore_py.z1_sweep(*ki) == (sweeps.projective_size(p, N - 1), base, 0)


def test_z1_sweep_against_naive_membership():
    """Count base-locus points with the high-level predicate and compare."""
    from jordanquad.birational import ProjPointC, in_z1
    p, r, n = 3, 2, 3
    alg = sweeps.fp_algebra(p, r, n)
    ki = sweeps.kernel_inputs(alg)
    raw = _fpcore_py.z1_sweep(*ki)
    m = alg.cd.dim
    naive = 0
    for pt in _fpcore_py._points(p, m * (n - 1)):
        blocks = [alg.cd.element(pt[i * m:(i + 1) * m]) for i in range(n - 1)]
        if in_z1(ProjPointC(alg, blocks, 0)):
            naive += 1
    assert raw[1] == naive == motives.decompose_z1(r, n).profile().eval_at(p)


def test_sweep_reports():
    rep = sweeps.exhaustive_quadric_sweep(sweeps.fp_algebra(7, 1, 3))
    assert rep.ok and rep.mode == "exhaustive"
    rep = sweeps.exhaustive_z1_sweep(sweeps.fp_algebra(7, 1, 3, split=False))
    assert rep.ok and rep.counts["z1_points"] == 0
    d = rep.as_dict()
    assert d["ok"] and d["kind"] == "z1"


def test_budget_dispatch():
    # huge space falls back to sampling; small one exhausts
    rep = sweeps.roundtrip_suite_case(7, 2, 4, budget=1000, samples=10, seed=3)
    assert rep.mode == "sampled" and rep.ok, rep.failures
    rep2 = sweeps.roundtrip_suite_case(7, 0, 3, budget=1000)
    assert rep2.mode == "exhaustive" and rep2.ok


def test_backend_name():
    assert fpkernels.active is _fpcore_py and fpkernels.compiled is None
    assert fpkernels.backend_name() == "pure-python"


def test_isotropic_search_delegates_to_kernel():
    f = QuadForm(PrimeField(7), (1, 1))
    assert isotropic_vector_search(f) is None
    f2 = QuadForm(PrimeField(5), (1, 1))
    v = isotropic_vector_search(f2)
    assert v is not None and evaluate(f2, v) == 0
