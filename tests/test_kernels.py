"""The mod-p kernels against the exact cardinality oracles, and against
per-point evaluators on true and corrupted tables.  Every sweep walks its
whole space."""

import inspect
import itertools
import random
import time

import pytest

from jordanquad import _fpcore_py, fpkernels, motives, scalars, sweeps
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


def test_roots_match_bruteforce():
    """The root lookup of wl x^2 = -v against every x, for every unit wl
    and every v: (x, p - x) increasing, (0,) at v = 0, None when there is
    no root.  17 and 41 are 1 mod 8, where Tonelli-Shanks loops."""
    for p in (3, 5, 7, 13, 17, 41):
        for wl in range(1, p):
            roots = _fpcore_py._roots(p, wl)
            for v in range(p):
                xs = tuple(x for x in range(p) if (wl * x * x + v) % p == 0)
                assert roots(v) == (xs or None), (p, wl, v)


def test_roots_take_one_square_root_per_value(monkeypatch):
    """A lookup asked for k distinct values, each several times, takes k
    square roots."""
    p, values = 41, (0, 1, 3, 7, 40)
    calls = [0]
    _counting(monkeypatch, "_sqrt_mod", calls)
    roots = _fpcore_py._roots(p, 3)
    for _ in range(4):
        for v in values:
            roots(v)
    assert calls[0] == len(values)


def test_quadric_sweep_searches_for_the_nonresidue_once(monkeypatch):
    """The square roots of a sweep share one least non-residue: a complete
    quadric sweep at p = 17, where Tonelli-Shanks needs one (17 = 1 mod 8),
    takes several square roots and searches for it at most once."""
    calls = [0]
    _counting(monkeypatch, "_sqrt_mod", calls)
    scalars.least_nonresidue.cache_clear()
    _fpcore_py.quadric_sweep(*sweeps.kernel_inputs(sweeps.fp_algebra(17, 1, 3)))
    assert calls[0] > 1
    assert scalars.least_nonresidue.cache_info().misses <= 1


def test_pure_kernels_reduce_big_integers():
    """b and gamma shifted by multiples of p beyond 64 bits, of either
    sign, give the counters of the reduced inputs."""
    p, b, gamma = sweeps.kernel_inputs(sweeps.fp_algebra(5, 1, 3))
    shifts = (10 ** 30, -(2 ** 64), 2 ** 70, -(10 ** 25))
    big_b = [x + p * shifts[i % 4] for i, x in enumerate(b)]
    m = len(gamma)
    big_gamma = [[x + p * shifts[(s * m + t) % 4] for t, x in enumerate(row)]
                 for s, row in enumerate(gamma)]
    assert all(abs(x) >= 2 ** 64 for x in big_b + [x for row in big_gamma for x in row])
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
        for bad_gamma in ([[1, 1], [1]], [[1] * 3] * 3, [[1] * 16] * 16, [1] * 4):
            with pytest.raises(ValueError, match="gamma"):
                sweep(p, b, bad_gamma)


@pytest.mark.parametrize("kernels", [_fpcore_py], ids=["pure"])
@pytest.mark.parametrize("p", [1, 9, 15, 2 ** 31 + 11])
def test_kernels_reject_a_modulus_that_is_not_an_odd_prime(kernels, p):
    """The kernels check p before they build anything: the per-fibre checks
    of the quadric sweep rest on every nonzero residue being a unit, and
    its root lookup holds up to p entries."""
    _, b, gamma = sweeps.kernel_inputs(sweeps.fp_algebra(5, 1, 3))
    msg = "p must be an odd prime below 2"
    with pytest.raises(ValueError, match=msg):
        kernels.isotropic_vector(p, [1, 1, 1])
    for sweep in (kernels.quadric_sweep, kernels.z1_sweep):
        with pytest.raises(ValueError, match=msg):
            sweep(p, [1, 1, 1], gamma)
        with pytest.raises(ValueError, match=msg):
            sweep(p, b, gamma)


def test_sweeps_take_what_kernel_inputs_gives():
    """The sweeps' parameters are the tuple sweeps.kernel_inputs returns,
    (p, b, gamma), and no more: a sweep walks its whole space."""
    ki = sweeps.kernel_inputs(sweeps.fp_algebra(5, 1, 3))
    assert len(ki) == 3
    for sweep in (_fpcore_py.quadric_sweep, _fpcore_py.z1_sweep):
        assert list(inspect.signature(sweep).parameters) == ["p", "b", "gamma"], sweep


def test_kernel_report_rejects_a_tuple_of_the_wrong_length():
    alg = sweeps.fp_algebra(5, 1, 3)
    for raw in ((1, 0), (1, 0, 0, 0)):
        with pytest.raises(ValueError):
            sweeps._kernel_report("z1", alg, sweeps._Z1_COUNTERS, raw, N=4, oracle=dict)


@pytest.mark.parametrize("kernels", [_fpcore_py], ids=["pure"])
def test_every_failure_counter_fires_on_a_corrupted_gamma(kernels):
    """A wrong structure constant breaks the identities each `*_fail`
    counter tests, so each one can fail; the sweeps give these tuples, one
    counter for each name in sweeps."""
    p, b, gamma = sweeps.kernel_inputs(sweeps.fp_algebra(5, 1, 3))
    fired = set()
    for entry, want in (((0, 0), (781, 156, 0, 36, 120, 120, 0, 120, 0)),
                        ((1, 0), (781, 156, 0, 36, 120, 114, 138, 0, 200))):
        bad = [row[:] for row in gamma]
        bad[entry[0]][entry[1]] = 2
        raw = kernels.quadric_sweep(p, b, bad)
        assert raw == want, entry
        fired |= {k for k, v in zip(sweeps._QUADRIC_COUNTERS, raw, strict=True) if v}
    p, b, gamma = sweeps.kernel_inputs(sweeps.fp_algebra(3, 2, 3))
    bad = [row[:] for row in gamma]
    bad[0][1] = bad[2][3] = 0
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
        out[s ^ t] += x[s] * (-y[t] if t else y[t]) * gamma[s][t]
    return [v % p for v in out]


def _conj(p, v):
    return [v[0]] + [-x % p for x in v[1:]]


def _quadric_sweep_per_point(p, b, gamma):
    """The quadric sweep's counters evaluated point by point: every
    canonical point is taken in turn, the matrix mat[i][j] = c_i conj(c_j) b_j
    of each point on the quadric is built in full, and each check is made on
    that matrix."""
    n, m = len(b), len(gamma)
    N = m * (n - 1) + 1
    pf = [gamma[0][0]] + [-gamma[t][t] for t in range(1, m)]
    w = [b[i] * pf[t] for i in range(n - 1) for t in range(m)] + [b[-1]]
    counts = dict.fromkeys(sweeps._QUADRIC_COUNTERS, 0)
    for c in _fpcore_py._points(p, N):
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
    return tuple(counts.values())


def _z1_sweep_per_point(p, b, gamma):
    """The base-locus sweep's counters evaluated point by point: every
    canonical point of P(C^{n-1}) is on the locus when its norms
    c_i conj(c_i) and its pairs c_i conj(c_j), i < j, are all zero, and
    fails there when its corner sum_k b_k conj(c_k) c_k is not."""
    n, m = len(b), len(gamma)
    counts = dict.fromkeys(sweeps._Z1_COUNTERS, 0)
    for c in _fpcore_py._points(p, m * (n - 1)):
        counts["scanned"] += 1
        blocks = [list(c[i * m:(i + 1) * m]) for i in range(n - 1)]
        if any(any(_mul_conj(p, gamma, ci, cj))
               for i, ci in enumerate(blocks) for cj in blocks[i:]):
            continue
        counts["z1_points"] += 1
        terms = [_mul_conj(p, gamma, _conj(p, ck), _conj(p, ck)) for ck in blocks]
        counts["equiv_fail"] += any(
            sum(bk * term[t] for bk, term in zip(b, terms)) % p for t in range(m))
    return tuple(counts.values())


# (p, m, n) of the corrupted-table agreement test: every composition
# dimension, complete spaces of 121 to 9841 points
CORRUPTED_SHAPES = [(3, 1, 3), (7, 1, 3), (5, 1, 4), (3, 1, 6), (3, 2, 3), (5, 2, 3),
                    (3, 2, 4), (3, 4, 2), (3, 4, 3), (3, 8, 2), (5, 1, 3)]


def _draws_between_tables(rng, p, m, n):
    """Draw, and drop, the numbers the corrupted-table test draws after
    each table: one below the number of fibres, and one step of each block
    of the walk past its lead.  They keep the test's 55 tables those its
    seed has always given, on which the complete sweeps fire every
    counter."""
    rng.randrange(sweeps.projective_size(p, m * (n - 1) + 1) // p)
    for i0 in range(n - 1):
        points = (p ** m - 1) // (p - 1) * p ** (m * (n - 2 - i0))
        for j in range(i0, n - 1):
            stride = p ** (m * (n - 2 - j))
            if points > stride:
                rng.randrange(1, points // stride)


def test_quadric_sweep_matches_per_point_evaluator_on_corrupted_tables(monkeypatch):
    """On random tables and b, zero entries included, the quadric and z1
    sweeps give the counters of their per-point evaluations, and between
    them the tables fire every counter.  A table whose c conj(c) is not
    always scalar has its kernels' null vectors listed by _kernel, one by
    one, so this test reaches that path."""
    kernels = [0]
    _counting(monkeypatch, "_kernel", kernels)
    rng = random.Random(14)
    fired = set()
    for p, m, n in CORRUPTED_SHAPES:
        r = m.bit_length() - 1
        _, _, table = sweeps.kernel_inputs(sweeps.fp_algebra(p, r, 3))
        for draw in range(5):
            # draw 0 keeps the true table, draw 1 changes 1 to m entries and
            # gamma_00, draw 2 1 to m entries; draw 3 zeroes the last diagonal
            # entry, so N(e_{m-1}) = 0, and draw 4 (m > 1) makes
            # e_0 conj(e_1) + e_1 conj(e_0) nonzero, so c conj(c) is not
            # scalar on some blocks of norm 0
            gamma = [row[:] for row in table]
            keys = rng.sample(range(m * m), rng.randint(1, m)) + [0] * (draw == 1)
            for k in keys if draw in (1, 2) else ():
                gamma[k // m][k % m] = rng.choice((0, rng.randrange(2, p)))
            if draw == 3:
                gamma[m - 1][m - 1] = 0
            if draw == 4 and m > 1:
                gamma[0][1] = (gamma[1][0] + 1) % p
            b = [rng.randrange(1, p) for _ in range(n)]
            _draws_between_tables(rng, p, m, n)
            for name, names, per_point in (
                    ("quadric_sweep", sweeps._QUADRIC_COUNTERS, _quadric_sweep_per_point),
                    ("z1_sweep", sweeps._Z1_COUNTERS, _z1_sweep_per_point)):
                got = getattr(_fpcore_py, name)(p, b, gamma)
                assert got == per_point(p, b, gamma), (name, p, m, n, b, gamma)
                fired |= {k for k, v in zip(names, got) if v}
    assert fired == set(sweeps._QUADRIC_COUNTERS + sweeps._Z1_COUNTERS)
    assert kernels[0]


def _kernel_point(alg, c, last):
    m = alg.cd.dim
    return ProjPointC(alg, [c[i * m:(i + 1) * m] for i in range(alg.n - 1)], last)


def _reference(alg, kind):
    """(scanned, on_quadric, base_points) or (scanned, z1_points) of the
    whole space, each canonical point tested on its own with the
    object-level predicates."""
    p, m, n = alg.field.p, alg.cd.dim, alg.n
    if kind == "z1":
        points = list(_fpcore_py._points(p, m * (n - 1)))
        return len(points), sum(in_z1(_kernel_point(alg, c, 0)) for c in points)
    qf = q_form(alg)
    points = [_kernel_point(alg, c[:-1], c[-1]) for c in _fpcore_py._points(p, m * (n - 1) + 1)]
    on = [pt for pt in points if evaluate(qf, pt.flatten()) == 0]
    return len(points), len(on), sum(map(in_z1, on))


# (p, r, n, split) of the point-by-point check: quadric spaces of at most
# 10^4 points; (3, 1, 5) and (5, 0, 6) have two or more levels of merged
# states above the last block
PARTIAL_CONFIGS = [(3, 1, 4, True), (3, 1, 4, False), (5, 1, 3, True), (5, 1, 3, False),
                   (7, 1, 3, False), (3, 2, 3, True), (5, 0, 4, True), (3, 1, 5, True),
                   (3, 1, 5, False), (5, 0, 6, True)]


@pytest.mark.parametrize("p, r, n, split", PARTIAL_CONFIGS)
def test_partial_sweeps_match_per_point_reference(p, r, n, split):
    """Both sweeps against a pass over every point of their spaces with the
    object-level predicates, evaluate(q_form) and in_z1; no check fails."""
    alg = sweeps.fp_algebra(p, r, n, split=split)
    ki = sweeps.kernel_inputs(alg)
    raw = _fpcore_py.quadric_sweep(*ki)
    assert raw[:3] == _reference(alg, "quadric")
    assert not any(raw[5:]), raw
    raw = _fpcore_py.z1_sweep(*ki)
    assert raw[:2] == _reference(alg, "z1")
    assert not raw[2], raw


def test_z1_sweep_forms_products_only_where_the_norm_vanishes(monkeypatch):
    """The e_0 coordinate of c conj(c) is the norm of c, so the z1 sweep of
    fp_algebra(41, 1, 3), 1,723 blocks of which 83 are null, forms a
    product only for the blocks that pass it."""
    alg = sweeps.fp_algebra(41, 1, 3)
    calls = [0]
    _counting(monkeypatch, "_mul_acc", calls)
    assert _fpcore_py.z1_sweep(*sweeps.kernel_inputs(alg)) == (
        sweeps.projective_size(41, 4), sweeps.z1_expected_count(alg), 0)
    assert calls[0] <= 400


def test_quadric_sweep_draws_each_last_block_once(monkeypatch):
    """The last prefix block's quadric term depends on that block alone,
    and for a true table its class is its norm: a complete sweep of
    fp_algebra(7, 1, 3) draws only the lead blocks, for the first level
    and for the lead of the last, not the p^m later blocks, whatever the
    size of the block cache."""
    alg = sweeps.fp_algebra(7, 1, 3)
    drawn = [0]
    tuples = _fpcore_py._tuples

    def counting_tuples(*args):
        for t in tuples(*args):
            drawn[0] += 1
            yield t

    monkeypatch.setattr(_fpcore_py, "_tuples", counting_tuples)
    p, m = 7, 2
    leads = (p ** m - 1) // (p - 1)
    for cap in (1 << 16, 0):
        monkeypatch.setattr(_fpcore_py, "_BLOCK_CAP", cap)
        drawn[0] = 0
        raw = _fpcore_py.quadric_sweep(*sweeps.kernel_inputs(alg))
        assert raw[1:3] == (fp_projective_zero_count(q_form(alg)),
                            sweeps.z1_expected_count(alg))
        # block 0 runs through the leads, and so does the last prefix block
        # after a zero block 0; the table counts the later blocks by norm
        assert drawn[0] <= 2 * leads, cap


def test_quadric_sweep_counters_do_not_depend_on_the_block_cache(monkeypatch):
    """With no block cache the quadric sweep gives the same counters as
    with the cache as shipped."""
    for shape in ((5, 0, 4), (5, 1, 3), (3, 1, 4), (3, 2, 3)):
        ki = sweeps.kernel_inputs(sweeps.fp_algebra(*shape))
        monkeypatch.setattr(_fpcore_py, "_BLOCK_CAP", 1 << 16)
        want = _fpcore_py.quadric_sweep(*ki)
        monkeypatch.setattr(_fpcore_py, "_BLOCK_CAP", 0)
        assert _fpcore_py.quadric_sweep(*ki) == want, shape


def _counting(monkeypatch, name, calls):
    """Count into calls[0] the calls of the function _fpcore_py.<name>."""
    real = getattr(_fpcore_py, name)

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(_fpcore_py, name, counted)


def test_quadric_sweep_forms_products_once_per_sweep(monkeypatch):
    """Every fact a block gives the quadric sweep is read from rows and
    forms built from the m^2 products e_s conj(e_t), which are read from
    the table, so a complete sweep forms no product at p = 7 or p = 19."""
    for p in (7, 19):
        alg = sweeps.fp_algebra(p, 1, 3)
        calls = [0]
        with monkeypatch.context() as patch:
            _counting(patch, "_mul_acc", calls)
            raw = _fpcore_py.quadric_sweep(*sweeps.kernel_inputs(alg))
        assert raw[:3] == (sweeps.projective_size(p, 5), fp_projective_zero_count(q_form(alg)),
                           sweeps.z1_expected_count(alg))
        assert not any(raw[5:]), raw
        assert calls[0] == 0, (p, calls[0])


def test_z1_sweep_reads_the_last_block_from_the_kernel(monkeypatch):
    """The last block of a base-locus point is a null vector of the kernel
    of the fixed blocks' rows: the z1 sweep of fp_algebra(5, 2, 3), 36 null
    lead blocks and 145 null later blocks, counts that kernel's null
    vectors instead of testing every null block against the rows."""
    alg = sweeps.fp_algebra(5, 2, 3)
    calls = [0]
    _counting(monkeypatch, "_in_kernel", calls)
    assert _fpcore_py.z1_sweep(*sweeps.kernel_inputs(alg)) == (
        sweeps.projective_size(5, 8), sweeps.z1_expected_count(alg), 0)
    assert calls[0] <= 1500


def test_z1_sweep_walks_the_norm_fibres(monkeypatch):
    """The null blocks of fp_algebra(41, 1, 3) are read from the norm's
    fibres: the prefixes of m - 1 coordinates and the roots of the last
    one, not the 1,723 blocks."""
    p = 41
    alg = sweeps.fp_algebra(p, 1, 3)
    drawn = [0]
    tuples = _fpcore_py._tuples

    def counting_tuples(*args):
        for t in tuples(*args):
            drawn[0] += 1
            yield t

    monkeypatch.setattr(_fpcore_py, "_tuples", counting_tuples)
    assert _fpcore_py.z1_sweep(*sweeps.kernel_inputs(alg)) == (
        sweeps.projective_size(p, 4), sweeps.z1_expected_count(alg), 0)
    assert drawn[0] <= 2 * p


def _listed_nulls(p, pf, rows):
    """The null vectors of the kernel of rows, as _kernel lists them."""
    return sum(not sum(a * y * y for a, y in zip(pf, v)) % p
               for v in _fpcore_py._kernel(p, len(pf), rows))


def test_null_count_matches_enumeration():
    """The null vectors of a kernel, counted from the rank and the
    discriminant of the norm on it, are those _kernel lists: seeded random
    rows in reduced echelon form, of every rank, under norm forms with zero
    coefficients too, so that the form on the kernel can be degenerate.
    The cases reach a zero form, odd ranks and even ranks of both
    characters."""
    rng = random.Random("null-count")
    seen = set()
    for p in (3, 5, 7):
        for m in (1, 2, 4, 8):
            if p ** m > 10 ** 5:
                continue
            _, _, gamma = sweeps.kernel_inputs(sweeps.fp_algebra(p, m.bit_length() - 1, 3))
            for pf in (_fpcore_py._norm_form(gamma), [rng.randrange(1, p) for _ in range(m)],
                       [rng.randrange(p) for _ in range(m)], [0] * (m - 1) + [1]):
                for _ in range(6):
                    rows = _fpcore_py._echelon(p, [[rng.randrange(p) for _ in range(m)]
                                                   for _ in range(rng.randint(0, m))])
                    kernel = list(_fpcore_py._kernel(p, m, rows))
                    w = m - len(rows)
                    assert len(set(kernel)) == p ** w
                    assert all(_fpcore_py._in_kernel(rows, y, p) for y in kernel)
                    want = _listed_nulls(p, pf, rows)
                    assert _fpcore_py._null_count(p, pf, rows) == want, (p, pf, rows)
                    seen.add("zero form" if want == p ** w else (want > p ** (w - 1)) -
                             (want < p ** (w - 1)))
    assert seen == {"zero form", -1, 0, 1}


def test_null_count_on_every_state_of_the_octonion_walk(monkeypatch):
    """The count equals _kernel's list on every distinct last-level state
    with rows of the complete (3, 3, 3) sweeps, 1,120 echelon forms, and
    both sweeps meet the oracles."""
    real = _fpcore_py._null_count
    states = {}

    def checked(p, pf, rows):
        if rows not in states:
            states[rows] = _listed_nulls(p, pf, rows)
        got = real(p, pf, rows)
        assert got == states[rows], rows
        return got

    monkeypatch.setattr(_fpcore_py, "_null_count", checked)
    _check_against_oracles(sweeps.fp_algebra(3, 3, 3))
    assert len(states) == 1120


def _check_against_oracles(alg):
    """Both complete sweeps of alg against the exact counting oracles that
    sweeps.exhaustive_*_sweep check, every counter."""
    p, n = alg.field.p, alg.n
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
        "sym_fail": 0, "trace_fail": 0, "diag_fail": 0}, (p, alg.cd.r, n)
    assert _fpcore_py.z1_sweep(*ki) == (sweeps.projective_size(p, N - 1), base, 0)


def test_quadric_sweep_oracles_pure():
    """Complete sweeps against the exact counting oracles: every counter
    of both sweeps."""
    for p, r, n in CONFIGS:
        _check_against_oracles(sweeps.fp_algebra(p, r, n))


def _bounded(monkeypatch, name, bound, draws=False):
    """Raise once the calls of _fpcore_py.<name>, or with draws the tuples
    it yields, pass bound."""
    real = getattr(_fpcore_py, name)
    calls = [0]

    def tick():
        calls[0] += 1
        if calls[0] > bound:
            raise AssertionError(f"{name} past {bound}")

    def counted(*args):
        tick()
        return real(*args)

    def drawn(*args):
        for t in real(*args):
            tick()
            yield t

    monkeypatch.setattr(_fpcore_py, name, drawn if draws else counted)


@pytest.mark.parametrize("shape", [(3, 1, 9), (3, 0, 17)])
def test_complete_sweeps_walk_each_distinct_state_once(monkeypatch, shape):
    """The 64.6 M points of fp_algebra(3, 1, 9) and (3, 0, 17) leave few
    distinct states at each level of the block walk: a prefix's quadric
    state is its value mod p and a few facts, and a base-locus state its
    corner mod p and its echelon rows.  Walking each distinct state once,
    times its number of prefixes, both complete sweeps meet the oracles
    with a few hundred block draws and a few hundred echelon forms, where
    a walk of every prefix makes millions of each."""
    _bounded(monkeypatch, "_tuples", 1000, draws=True)
    _bounded(monkeypatch, "_echelon", 1000)
    _check_against_oracles(sweeps.fp_algebra(*shape))


def test_complete_sweeps_count_the_last_block_on_a_true_table(monkeypatch):
    """On a true table the null vectors of a state's kernel are counted
    from the norm on it, not listed: the complete (3, 3, 3) sweeps meet the
    oracles while _kernel yields at most 1,000 vectors, where listing the
    kernels yields 90,720 vectors in each sweep."""
    _bounded(monkeypatch, "_kernel", 1000, draws=True)
    _check_against_oracles(sweeps.fp_algebra(3, 3, 3))


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
    assert rep.kind == "z1"


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
