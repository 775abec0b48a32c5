import itertools
import math
import random
from fractions import Fraction

import pytest
from conftest import assert_canonical, large_scalar, point_from_flat, veronese_matrix

from jordanquad.birational import (ProjPointC, ProjPointJ,
                                   half_space_square_zero, in_z1, in_z2,
                                   on_quadric, projective_eq, q_form,
                                   transposition_map, transposition_star,
                                   veronese, veronese_inverse)
from jordanquad.cayley_dickson import CDAlgebra, CDElem
from jordanquad.errors import AlgebraMismatchError, BasePointError
from jordanquad.jordan import JordanAlgebra, JordanElem
from jordanquad.quadform import bilinear, evaluate
from jordanquad.scalars import PrimeField, Rationals
from jordanquad import _fpcore_py, birational, jordan, sweeps

Q = Rationals()


def alg_r0(b=(1, 1, 1)):
    return JordanAlgebra(CDAlgebra(Q, []), b)


def alg_r2(b=(1, 2, -3), params=(-1, -1), field=Q):
    return JordanAlgebra(CDAlgebra(field, params), b)


def pt(alg, cvals, last):
    cd = alg.cd
    return ProjPointC(alg, [cd.element(v) for v in cvals], last)


def test_scalar_veronese_matrix():
    alg = alg_r0()
    p = pt(alg, [[1], [2]], 3)
    img = veronese(p)
    rows = [[e.scalar_part() for e in row] for row in img.elem.entries]
    assert rows == [[1, 2, 3], [2, 4, 6], [3, 6, 9]]
    assert img.elem.is_rank_one()


def test_projective_scaling_same_point():
    alg = alg_r0()
    assert pt(alg, [[1], [2]], 3) == pt(alg, [[2], [4]], 6)
    assert projective_eq(pt(alg, [[1], [2]], 3), pt(alg, [[-1], [-2]], -3))
    assert not projective_eq(pt(alg, [[1], [0]], 0), pt(alg, [[0], [1]], 0))


def test_projective_eq_cd_coordinates():
    alg = alg_r2()
    cd = alg.cd
    a = ProjPointC(alg, [cd.basis(1), cd.one()], 0)
    b = ProjPointC(alg, [2 * cd.basis(1), 2 * cd.one()], 0)
    assert projective_eq(a, b)


def test_ambient_mismatch():
    with pytest.raises(AlgebraMismatchError):
        projective_eq(pt(alg_r0(), [[1], [2]], 3), pt(alg_r0((1, 1, -1)), [[1], [2]], 3))


def test_trace_equals_quadric_value():
    rng = random.Random(2)
    for r, b in [(0, (1, 2, -3)), (1, (1, 1, 1)), (2, (1, 2, -3)), (3, (2, 1, 5))]:
        alg = JordanAlgebra(CDAlgebra(Q, [-1] * r), b)
        qf = q_form(alg)
        for _ in range(8):
            cvals = [[rng.randint(-3, 3) for _ in range(alg.cd.dim)]
                     for _ in range(alg.n - 1)]
            last = rng.randint(-3, 3)
            try:
                p = pt(alg, cvals, last)
            except ValueError:
                continue
            m = veronese_matrix(p)
            tr = sum(m[i][i].scalar_part() for i in range(alg.n))
            assert tr == evaluate(qf, p.flatten())


def test_idempotent_image():
    alg = alg_r2()
    p = pt(alg, [[0] * 4, [0] * 4], 1)
    img = veronese(p)
    Enn = alg.basis_idempotent(alg.n - 1)
    assert projective_eq(img, ProjPointJ(Enn.scale(alg.b[-1])))
    back = veronese_inverse(img)
    assert projective_eq(back, p)


def test_round_trip_r0():
    alg = alg_r0()
    p = pt(alg, [[1], [2]], 3)
    assert projective_eq(veronese_inverse(veronese(p)), p)


def test_inverse_base_point():
    alg = alg_r0((1, 1, 1))
    E11 = alg.basis_idempotent(0)
    with pytest.raises(BasePointError):
        veronese_inverse(ProjPointJ(E11))
    Enn = alg.basis_idempotent(2)
    assert projective_eq(veronese_inverse(ProjPointJ(Enn)), pt(alg, [[0], [0]], 1))


def test_in_z1_split_quaternions_f7():
    F7 = PrimeField(7)
    alg = alg_r2(b=(1, 1, 2), params=(1, 1), field=F7)
    cd = alg.cd
    z = cd.one() + cd.basis(1)      # z zbar = 1 - 1 = 0
    assert (z * z.conj()).coords == cd.zero().coords
    p = ProjPointC(alg, [z, z], 0)
    assert in_z1(p)
    assert half_space_square_zero(p)
    with pytest.raises(BasePointError):
        veronese(p)
    # any c with nonzero scalar slot escapes the locus
    p2 = ProjPointC(alg, [z, z], 1)
    assert not in_z1(p2)
    img = veronese(p2)
    assert img is not None


def test_in_z1_anisotropic_is_empty():
    alg = alg_r2()  # <<-1,-1>> over Q is anisotropic
    rng = random.Random(3)
    for _ in range(40):
        cvals = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(2)]
        try:
            p = pt(alg, cvals, 0)
        except ValueError:
            continue
        assert not in_z1(p)
        assert not half_space_square_zero(p)
    assert sweeps.z1_rational_box_search(alg, bound=1) == 0


@pytest.mark.parametrize("n", [3, 4])
def test_in_z1_multiplies_each_pair_once(monkeypatch, n):
    """c_j conj(c_i) = conj(c_i conj(c_j)), so deciding a member of Z1
    takes the products of the pairs i <= j alone, n(n-1)/2 of them."""
    alg = sweeps.fp_algebra(3, 1, n)
    z = alg.cd.element([1, 1])      # N(z) = 1 - 1 = 0
    p = ProjPointC(alg, [z] * (n - 1), 0)
    calls = []
    product = birational._product
    monkeypatch.setattr(birational, "_product",
                        lambda *args: calls.append(args) or product(*args))
    assert in_z1(p)
    assert len(calls) == n * (n - 1) // 2


@pytest.mark.parametrize("params,b", [([1], (1, 2, 1)), ([2], (1, 1, 2)),
                                      ([], (1, 1, 1, 1)), ([1, 1], (1, 2, 1))],
                         ids=["3-1-3-split", "3-1-3-nonsplit", "3-0-4", "3-2-3-split"])
def test_half_space_square_zero_on_every_c_n_zero_point(params, b):
    """Every point of P(C^{n-1} x k) over F_3 with c_n = 0: the values
    square of x(c), its square through JordanElem and in_z1 agree, and
    the members are the base locus's closed-form count."""
    alg = JordanAlgebra(CDAlgebra(PrimeField(3), params), b)
    m = alg.cd.dim
    members = 0
    for v in _fpcore_py._points(3, m * (alg.n - 1)):
        p = ProjPointC(alg, [v[k:k + m] for k in range(0, len(v), m)], 0)
        got = half_space_square_zero(p)
        assert got == alg.half_space_element(p.cparts).square().is_zero() == in_z1(p), p
        members += got
    assert members == sweeps.z1_expected_count(alg)


@pytest.mark.parametrize("r,n", [(1, 3), (2, 3), (1, 4)])
def test_half_space_square_zero_on_rational_points(r, n):
    """Seeded points of a split algebra over Q with denominators: c_j = l_j z
    for a null z (members of Z1) and random c (not, with c_n = 0 or not)."""
    alg = JordanAlgebra(CDAlgebra(Q, [1] * r), (Fraction(1, 3), -2, Fraction(5, 4), 7)[:n])
    cd, rng = alg.cd, random.Random(f"hs:{r}:{n}")
    z = cd.one() + cd.basis(1)      # N(z) = 1 - 1 = 0

    def scalar():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    members = 0
    for t in range(30):
        if t % 3 == 0:
            cparts, last = [z * Fraction(rng.randint(1, 9), rng.randint(1, 6))
                            for _ in range(n - 1)], 0
        else:
            cparts = [[scalar() for _ in range(cd.dim)] for _ in range(n - 1)]
            last = 0 if t % 3 == 1 else scalar()
        p = ProjPointC(alg, cparts, last)
        got = half_space_square_zero(p)
        assert got == alg.half_space_element(p.cparts).square().is_zero(), p
        if p.last == 0:
            assert got == in_z1(p), p
        members += got
    assert members >= 10


def test_half_space_square_zero_builds_no_scalar(monkeypatch):
    """x(c)^2 = 0 is decided on plain values: with PrimeField.wrap
    refusing, it still answers on (7, 3, 3) points in and out of Z1."""
    alg = sweeps.fp_algebra(7, 3, 3)
    cd = alg.cd
    z = cd.one() + cd.basis(1)
    points = [ProjPointC(alg, [z, z * 3], 0), ProjPointC(alg, [cd.basis(2), z], 0),
              ProjPointC(alg, [cd.one(), cd.basis(3)], 0)]
    want = [in_z1(p) for p in points]

    def refuse(*args):
        raise AssertionError("F_p scalar built for x(c)^2")

    monkeypatch.setattr(PrimeField, "wrap", refuse)
    assert [half_space_square_zero(p) for p in points] == want == [True, False, False]


@pytest.mark.parametrize("r,n", [(3, 3), (2, 4), (1, 4)])
def test_half_space_square_zero_stops_at_the_first_nonzero_entry(monkeypatch, r, n):
    """x(c)^2 is read entry by entry in row order: its (0, 0) entry is
    b_{n-1} b_0 N(c_0), so a point with N(c_0) != 0 is decided by one
    product, a null c_0 with c_0 conj(c_1) != 0 by two, and a member of Z1
    forms every product of the upper triangle, (n-1)(n+2)/2 of them."""
    alg = sweeps.fp_algebra(7, r, n)
    cd = alg.cd
    z = cd.one() + cd.basis(1)      # N(z) = 1 - 1 = 0
    calls = []
    mul_acc = jordan._mul_acc
    monkeypatch.setattr(jordan, "_mul_acc",
                        lambda *args: calls.append(args) or mul_acc(*args))
    cases = [([cd.one()] * (n - 1), 1, False, 1),
             ([z, cd.one()] + [cd.zero()] * (n - 3), 0, False, 2),
             ([z * (k + 1) for k in range(n - 1)], 0, True, (n - 1) * (n + 2) // 2)]
    for cparts, last, member, products in cases:
        p = ProjPointC(alg, cparts, last)
        calls.clear()
        assert half_space_square_zero(p) == member
        assert len(calls) == products
        assert in_z1(p) == member


def test_sampled_checks_catch_a_wrong_square_test(monkeypatch):
    """The sampled z1 and quadric checks compare in_z1 with x(c)^2 = 0 on
    every point: a square test that answers wrongly is reported."""
    alg = sweeps.fp_algebra(7, 2, 3)
    message = "in_z1 != (x(c)^2 = 0)"
    assert sweeps.sampled_z1_checks(alg).ok
    monkeypatch.setattr(sweeps, "half_space_square_zero", lambda pt: not in_z1(pt))
    for rep in (sweeps.sampled_z1_checks(alg),
                sweeps.sampled_quadric_checks(alg, count=20, seed=5, rank_checks=0)):
        wrong = [f for f in rep.failures if f.endswith(message)]
        assert wrong and len(wrong) == rep.scanned, rep.failures


def test_sampled_checks_build_no_jordan_element(monkeypatch):
    """Points and images are read as values: the sampled z1 checks, and the
    sampled quadric checks with and without rank-one checks on every
    image, build no JordanElem, on F_p and on Q."""
    algs = [sweeps.fp_algebra(7, 3, 3), sweeps.fp_algebra(7, 2, 4),
            JordanAlgebra(CDAlgebra(Q, [-1, 2]), (1, 2, -3))]
    built = []
    init = JordanElem.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(JordanElem, "__init__", counting)
    rep = sweeps.sampled_z1_checks(algs[0])
    assert rep.ok and rep.counts["z1_members"], rep.failures
    for alg in algs:
        rep = sweeps.sampled_quadric_checks(alg, count=20, seed=5, rank_checks=0)
        assert rep.ok and rep.counts["roundtrip"] and rep.counts["transpositions"], rep.failures
        rep = sweeps.sampled_quadric_checks(alg, count=20, seed=5, rank_checks=20)
        assert rep.ok and rep.counts["rank_one"] > 0, rep.failures
    assert not built


def doubled_block(point):
    """The point with its block c_{n-1} doubled: another point of the same
    space, whose image, inverse and transposition differ from the point's
    wherever c_{n-1} is not 0."""
    alg = point.algebra
    m, k = alg.cd.dim, alg.n - 2
    vals = list(point.vals)
    vals[k * m:(k + 1) * m] = [2 * a for a in vals[k * m:(k + 1) * m]]
    return ProjPointC._from_values(alg, vals)


def test_sampled_transposition_reads_the_image(monkeypatch):
    """The sampled transposition is column n-1 of the image the checks
    built, compared with the star formula: an image of the wrong point is
    reported."""
    alg = sweeps.fp_algebra(7, 1, 3)
    message = "transposition != star formula"
    rep = sweeps.sampled_quadric_checks(alg, count=30, seed=5, rank_checks=0)
    assert rep.ok and rep.counts["transpositions"], rep.failures
    monkeypatch.setattr(sweeps, "veronese", lambda pt: veronese(doubled_block(pt)))
    rep = sweeps.sampled_quadric_checks(alg, count=30, seed=5, rank_checks=0)
    assert any(f.endswith(message) for f in rep.failures), rep.failures


def test_sampled_z1_checks_build_no_image(monkeypatch):
    """in_z1 is the map's own zero test, so the sampled z1 checks do not
    build the image: with veronese refusing, they give the same report."""
    algs = [sweeps.fp_algebra(7, 2, 3), JordanAlgebra(CDAlgebra(Q, [1]), (1, 2, -3))]
    want = [sweeps.sampled_z1_checks(alg) for alg in algs]

    def refuse(pt):
        raise AssertionError("sampled_z1_checks built an image")

    monkeypatch.setattr(sweeps, "veronese", refuse)
    got = [sweeps.sampled_z1_checks(alg) for alg in algs]
    assert got == want and all(rep.ok and rep.counts["z1_members"] for rep in got)


def wrong_star(pt):
    """The star formula of another point, in the swapped space."""
    return transposition_star(doubled_block(pt))


SAMPLED_QUADRIC_FAILURES = [
    ("on_quadric", lambda pt: False, "sampled point off the quadric"),
    ("veronese", lambda pt: veronese(doubled_block(pt)), "image trace nonzero"),
    ("_symmetric_values", lambda alg, rows: False, "image not sigma_b-symmetric"),
    ("veronese_inverse", lambda pj: doubled_block(veronese_inverse(pj)), "round trip failed"),
    ("in_z2", lambda pj: False, "c_n = 0 image not in Z2"),
    ("_rank_one_values", lambda alg, rows: False, "image fails rank-one"),
    ("transposition_star", wrong_star, "transposition != star formula"),
    ("projective_eq", lambda u, v: False, "double transposition moved the point"),
]


@pytest.mark.parametrize("name,fake,message", SAMPLED_QUADRIC_FAILURES,
                         ids=[name for name, *_ in SAMPLED_QUADRIC_FAILURES])
def test_every_sampled_quadric_failure_fires(monkeypatch, name, fake, message):
    """Each failure message of the sampled quadric checks is reported when
    the function behind it answers wrongly."""
    alg = sweeps.fp_algebra(7, 2, 3)
    rep = sweeps.sampled_quadric_checks(alg, count=40, seed=5, rank_checks=40)
    assert rep.ok, rep.failures
    monkeypatch.setattr(sweeps, name, fake)
    rep = sweeps.sampled_quadric_checks(alg, count=40, seed=5, rank_checks=40)
    assert any(f.endswith(message) for f in rep.failures), rep.failures


def test_sampled_z1_checks_report_undetected_members(monkeypatch):
    """The constructed zero-divisor members are counted: an in_z1 that
    never holds is reported."""
    alg = sweeps.fp_algebra(7, 2, 3)
    monkeypatch.setattr(sweeps, "in_z1", lambda pt: False)
    rep = sweeps.sampled_z1_checks(alg)
    assert "constructed zero-divisor members not detected" in rep.failures, rep.failures


def test_z1_membership_equivalences_sampled():
    rep = sweeps.sampled_z1_checks(sweeps.fp_algebra(7, 2, 3), count=60, seed=4)
    assert rep.ok, rep.failures
    assert rep.counts["z1_members"] >= 1


def test_in_z2():
    alg = alg_r0((1, 1, 1))
    E11 = alg.basis_idempotent(0)
    assert in_z2(ProjPointJ(E11 - alg.basis_idempotent(1)))
    p = pt(alg, [[1], [2]], 3)
    assert not in_z2(veronese(p))
    # the c_n = 0 slice of the quadric maps into Z2
    alg2 = alg_r2(b=(1, -1, 5))
    p2 = pt(alg2, [[1, 0, 0, 0], [1, 0, 0, 0]], 0)   # 1 - 1 + 0 = 0 on quadric
    assert on_quadric(p2)
    assert in_z2(veronese(p2))


def test_transposition_r0_example():
    alg = alg_r0((1, 2, -3))
    p = pt(alg, [[1], [1]], 1)
    assert on_quadric(p)
    t = transposition_map(p)
    assert [str(x) for x in t.algebra.b] == ["1", "-3", "2"]
    # image is (1,1,1) and satisfies <1,-3,2> = 0 via the trace quadric
    assert projective_eq(t, pt(t.algebra, [[1], [1]], 1))
    assert on_quadric(t)
    assert projective_eq(t, transposition_star(p))
    assert projective_eq(transposition_map(t), p)


def test_transposition_base_point():
    alg = alg_r0((1, 2, -3))
    p = pt(alg, [[1], [0]], 0)   # c_{n-1} = 0 kills column n-1
    with pytest.raises(BasePointError):
        transposition_map(p)
    with pytest.raises(BasePointError):
        transposition_star(p)


def test_transposition_octonions():
    alg = JordanAlgebra(CDAlgebra(Q, [-1, -1, -1]), (1, 2, -3))
    rep = sweeps.sampled_quadric_checks(alg, count=15, seed=6, rank_checks=1)
    assert rep.ok, rep.failures
    assert rep.counts["transpositions"] >= 10
    assert rep.counts["double_transpositions"] >= 10


def column_transposition(point):
    """transposition_map from the full matrix: column n-1 of
    veronese_matrix, slots n-1 and n swapped."""
    alg = point.algebra
    n = alg.n
    col = [row[n - 2] for row in veronese_matrix(point)]
    if all(not e for e in col):
        return None
    return ProjPointC(alg.swap_last_two(), col[:n - 2] + [col[n - 1]],
                      col[n - 2].scalar_part())


@pytest.mark.parametrize("field", [Q, PrimeField(7), PrimeField(13)], ids=str)
@pytest.mark.parametrize("r,n", [(0, 3), (1, 3), (2, 3), (3, 3), (1, 4), (2, 4)])
def test_transposition_map_matches_matrix_column(field, r, n):
    alg = JordanAlgebra(CDAlgebra(field, [-1, 2, 3][:r]), (1, 2, -3, 5)[:n])
    cd = alg.cd
    rng = random.Random(f"{field}:{r}:{n}")
    points = list(sweeps.sample_quadric_points(alg, 4, seed=r + n))
    # off the quadric too; every fourth with slot n-1 zero, where the map
    # is undefined, and the scalar slot zero now and then
    for t in range(12):
        blocks = [[rng.randint(-3, 3) for _ in range(cd.dim)] for _ in range(n - 1)]
        if t % 4 == 0:
            blocks[n - 2] = [0] * cd.dim
        last = rng.choice((0, rng.randint(-3, 3)))
        if any(map(any, blocks)) or last:
            points.append(pt(alg, blocks, last))
    undefined = 0
    for p in points:
        coords = list(p.cparts) + [cd.from_scalar(p.last)]
        rows = veronese_matrix(p)
        assert rows == [[ci * cj.conj() * bj for cj, bj in zip(coords, alg.b)]
                        for ci in coords]
        expect = column_transposition(p)
        if expect is None:
            undefined += 1
            with pytest.raises(BasePointError):
                transposition_map(p)
        else:
            assert transposition_map(p) == expect
    assert undefined and len(points) - undefined >= 8


def test_sampled_roundtrip_all_small_configs():
    for r, b in [(0, (1, 2, -3)), (1, (1, 2, -3)), (2, (1, 2, -3))]:
        alg = JordanAlgebra(CDAlgebra(Q, [-1] * r), b)
        rep = sweeps.sampled_quadric_checks(alg, count=20, seed=8, rank_checks=2)
        assert rep.ok, rep.failures
        assert rep.counts["roundtrip"] >= 15


def test_zero_point_rejected():
    alg = alg_r0()
    with pytest.raises(ValueError):
        pt(alg, [[0], [0]], 0)


@pytest.mark.parametrize("r,n", [(0, 3), (1, 3), (2, 3), (3, 3), (1, 4), (2, 4)])
def test_maps_with_large_denominators(integer_path_field, r, n):
    """Round trips through veronese and veronese_inverse, and transposition
    map against star formula, on points, b and doubling parameters over
    large coprime denominators."""
    field = integer_path_field
    rng = random.Random(f"large:{field}:{r}:{n}")
    cd = CDAlgebra(field, [large_scalar(field, rng, zero_frac=0) for _ in range(r)])
    alg = JordanAlgebra(cd, [large_scalar(field, rng, zero_frac=0) for _ in range(n)])
    round_trips = transpositions = 0
    for _ in range(12):
        cparts = [cd.element([large_scalar(field, rng) for _ in range(cd.dim)])
                  for _ in range(n - 1)]
        last = large_scalar(field, rng, zero_frac=0.2)
        if not (last or any(cparts)):
            continue
        p = ProjPointC(alg, cparts, last)
        assert_canonical(p.flatten(), field)
        if p.last:
            image = veronese(p)
            assert_canonical(image.elem.flatten(), field)
            back = veronese_inverse(image)
            assert back == p and hash(back) == hash(p)
            round_trips += 1
        if p.cparts[n - 2]:
            t1, star = transposition_map(p), transposition_star(p)
            assert projective_eq(t1, star) and hash(t1) == hash(star)
            assert_canonical(t1.flatten(), field)
            transpositions += 1
    assert round_trips >= 5 and transpositions >= 5


# -- the value path against the object arithmetic ----------------------------
#
# The maps run on plain integer values; these references compute the same
# objects with CDElem products, conjugates and scalar divisions only.


def reference_matrix(point):
    """[c_i conj(c_j) b_j], every entry a CDElem product."""
    alg = point.algebra
    coords = list(point.cparts) + [alg.cd.from_scalar(point.last)]
    return [[ci * (cj.conj() * bj) for cj, bj in zip(coords, alg.b)] for ci in coords]


def reference_point(alg, cparts, last):
    """(cparts, last) divided by the first nonzero coordinate, each block
    scaled by the inverse of that lead."""
    flat = [x for c in cparts for x in c.coords] + [alg.field.element(last)]
    inv = alg.field.one() / next(x for x in flat if x)
    return tuple(inv * c for c in cparts), inv * alg.field.element(last)


def reference_elem(elem):
    """The element divided by its first nonzero coordinate."""
    lead = next(x for x in elem.flatten() if x)
    return elem.scale(elem.algebra.field.one() / lead)


def reference_half_space(alg, cparts):
    """x(c) with x_ji = c_j and x_ij = conj(c_j) b_j / b_i, i = n - 1."""
    n, cd = alg.n, alg.cd
    rows = [[cd.zero()] * n for _ in range(n)]
    for j, c in enumerate(cparts):
        rows[j][n - 1] = c
        rows[n - 1][j] = c.conj() * (alg.b[j] / alg.b[n - 1])
    return alg.element(rows)


def check_point_against_references(p):
    """Every map of the module at p against the references above."""
    alg, n = p.algebra, p.algebra.n
    cparts, last = reference_point(alg, p.cparts, p.last)
    assert (p.cparts, p.last) == (cparts, last)
    assert repr(p) == "[" + ", ".join(map(repr, cparts)) + f"; {last}]"
    rows = reference_matrix(p)
    assert veronese_matrix(p) == rows
    assert in_z1(p) == (not p.last and all(not ci * cj.conj()
                                           for ci in p.cparts for cj in p.cparts))
    assert alg.half_space_element(p.cparts).entries == reference_half_space(alg, p.cparts).entries
    if all(not e for row in rows for e in row):
        with pytest.raises(BasePointError):
            veronese(p)
    else:
        want = reference_elem(alg.element(rows))
        img = veronese(p)
        assert img.elem == want and repr(img) == f"P{want!r}" and hash(img) == hash(ProjPointJ(want))
        assert ProjPointJ(alg.element(rows)) == img
        if p.last:
            col = [row[n - 1] for row in rows]
            back = veronese_inverse(img)
            assert (back.cparts, back.last) == reference_point(alg, col[:-1],
                                                             col[-1].scalar_part())
    col = [row[n - 2] for row in rows]
    swapped = alg.swap_last_two()
    if all(not e for e in col):
        with pytest.raises(BasePointError):
            transposition_map(p)
    else:
        t = transposition_map(p)
        assert t.algebra == swapped
        assert (t.cparts, t.last) == reference_point(swapped, col[:n - 2] + [col[n - 1]],
                                                     col[n - 2].scalar_part())
    w = p.cparts[n - 2]
    star = [c * w.conj() for c in p.cparts[:n - 2]] + [p.last * w.conj()]
    if not w or not (w.norm() or any(star)):
        with pytest.raises(BasePointError):
            transposition_star(p)
    else:
        s = transposition_star(p)
        assert (s.cparts, s.last) == reference_point(swapped, star, w.norm())


def canonical_values(field, flat):
    """(vals, lead) of the field scalars flat: over F_p the residues times
    the inverse of the first nonzero one, over Q the integers over the lcm
    of the denominators divided by their gcd, signed so that the first
    nonzero one is positive; lead is that first nonzero value."""
    if field.kind == "Q":
        den = math.lcm(*(x.denominator for x in flat))
        ints = [x.numerator * (den // x.denominator) for x in flat]
        g = math.gcd(*ints)
        vals = [v // g for v in ints]
        if next(v for v in vals if v) < 0:
            vals = [-v for v in vals]
    else:
        p = field.p
        inv = pow(next(x.v for x in flat if x), -1, p)
        vals = [x.v * inv % p for x in flat]
    return vals, next(v for v in vals if v)


def check_scalings(alg, flat, lam):
    """The points built from the block-major coordinates flat and from
    lam * flat are equal, with equal hash, views, flatten() and repr; both
    store the canonical values worked out here, and their views are
    field.wrap(vals, lead).  The same for their images, from veronese and
    from ProjPointJ of the matrix and of its lam-multiple."""
    field, cd, n = alg.field, alg.cd, alg.n
    m = cd.dim
    flat = [field.element(x) for x in flat]
    points = [ProjPointC(alg, [w[i * m:(i + 1) * m] for i in range(n - 1)], w[-1])
              for w in (flat, [lam * x for x in flat])]
    vals, lead = canonical_values(field, flat)
    want = field.wrap(vals, lead)
    cparts = tuple(CDElem(cd, want[k:k + m]) for k in range(0, len(want) - 1, m))
    for q in points:
        assert q.vals == tuple(vals)
        assert (q.cparts, q.last) == (cparts, want[-1])
    a, b = points
    assert a == b and hash(a) == hash(b)
    assert (a.cparts, a.last, a.flatten(), repr(a)) == (b.cparts, b.last, b.flatten(), repr(b))
    rows = veronese_matrix(a)
    if all(not e for row in rows for e in row):
        return
    elem = alg.element(rows)
    images = [veronese(a), veronese(b), ProjPointJ(elem), ProjPointJ(elem.scale(lam))]
    vals, lead = canonical_values(field, elem.flatten())
    want = field.wrap(vals, lead)
    for img in images:
        assert img.vals == tuple(vals)
        assert img.elem.flatten() == list(want)
        assert img == images[0] and hash(img) == hash(images[0])
        assert img.elem == images[0].elem and repr(img) == repr(images[0])


@pytest.mark.parametrize("r,n,split", [(1, 3, True), (1, 3, False), (0, 4, True)])
def test_maps_on_every_point_at_p3(r, n, split):
    """Every nonzero vector of C^{n-1} x k over F_3, each scaling of each
    point included: the canonical form, the matrix, the image, the round
    trip, both transpositions and the half-space element agree with the
    object arithmetic, and a seeded unit multiple of the vector gives the
    same point and image."""
    alg = sweeps.fp_algebra(3, r, n, split=split)
    m = alg.cd.dim
    N = m * (n - 1) + 1
    rng = random.Random(f"p3:{r}:{n}:{split}")
    seen, base = set(), 0
    for v in itertools.product(range(3), repeat=N):
        if not any(v):
            continue
        p = ProjPointC(alg, [v[i * m:(i + 1) * m] for i in range(n - 1)], v[-1])
        check_point_against_references(p)
        check_scalings(alg, v, rng.randrange(1, 3))
        seen.add(p)
        base += all(not e for row in reference_matrix(p) for e in row)
    assert len(seen) == sweeps.projective_size(3, N)
    # Z1 has points exactly when C is split
    assert (base > 0) == (r == 1 and split)


@pytest.mark.parametrize("r,n", [(0, 3), (1, 3), (2, 3), (3, 3), (1, 4), (2, 4)])
def test_maps_on_rational_points_with_denominators(r, n):
    """Seeded points over Q whose coordinates have denominators and whose
    lead is negative, with fractional b and doubling parameters; each also
    scaled by a negative fraction."""
    rng = random.Random(f"values:{r}:{n}")
    b = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7))
         for _ in range(n - 1)]
    b.append(-sum(b) or Fraction(1))     # the sampler needs an isotropic vector
    alg = JordanAlgebra(CDAlgebra(Q, [Fraction(-1, 2), 3, Fraction(-5, 7)][:r]), b)
    m = alg.cd.dim
    for t in range(10):
        flat = [rng.choice((0, Fraction(rng.randint(-40, 40), rng.randint(1, 12))))
                for _ in range(m * (n - 1) + 1)]
        k = t % len(flat)
        flat[:k + 1] = [0] * k + [-Fraction(rng.randint(1, 30), rng.choice((31, 37, 41)))]
        p = ProjPointC(alg, [flat[i * m:(i + 1) * m] for i in range(n - 1)], flat[-1])
        lead = next(x for x in flat if x)
        assert lead < 0 and lead.denominator > 1
        check_point_against_references(p)
        check_scalings(alg, flat, Fraction(-rng.randint(1, 12), 13))
        for q in sweeps.sample_quadric_points(alg, 2, seed=t):
            check_point_against_references(q)
            check_scalings(alg, [x for c in q.cparts for x in c.coords] + [q.last],
                           Fraction(-rng.randint(1, 12), 13))


def reference_samples(alg, count, seed):
    """The sampler by t = -q(v) / 2B(e, v): the point t e + v, divided out
    in the field."""
    fld = alg.field
    qf, e = q_form(alg), sweeps.base_quadric_vector(alg)
    N = sweeps.flat_dim(alg)
    rng = random.Random(seed)
    points, draws = [], 0
    while len(points) < count:
        draws += 1
        if isinstance(fld, PrimeField):
            v = [fld.element(rng.randrange(fld.p)) for _ in range(N)]
        else:
            hi = 5 + draws // (20 * count) * 5
            v = [Fraction(rng.randint(-hi, hi)) for _ in range(N)]
        denom = 2 * bilinear(qf, e, v)
        if not denom:
            continue
        t = -evaluate(qf, v) / denom
        w = [t * a + x for a, x in zip(e, v)]
        if any(w):
            pt = point_from_flat(alg, w)
            if pt not in points:
                points.append(pt)
    return points


@pytest.mark.parametrize("field", [Q, PrimeField(7)], ids=str)
@pytest.mark.parametrize("r,n", [(0, 3), (1, 3), (2, 3), (3, 3), (1, 4), (2, 4)])
def test_sampler_matches_division_formula(field, r, n):
    """The integer vector -q(v) e + 2B(e, v) v gives the points of the
    t = -q(v) / 2B(e, v) formula, in the same order, for each seed."""
    alg = JordanAlgebra(CDAlgebra(field, [-1, 2, 3][:r]), (1, 2, -3, 5)[:n])
    for seed in (0, 1, 17, 1789):
        got = sweeps.sample_quadric_points(alg, 6, seed)
        want = reference_samples(alg, 6, seed)
        assert got == want and list(map(repr, got)) == list(map(repr, want))
        assert all(on_quadric(pt) for pt in got)
