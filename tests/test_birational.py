import random

import pytest
from conftest import assert_canonical, large_scalar

from jordanquad.birational import (ProjPointC, ProjPointJ,
                                   half_space_square_zero, in_z1, in_z2,
                                   on_quadric, projective_eq, q_form,
                                   transposition_map, transposition_star,
                                   veronese, veronese_inverse, veronese_matrix)
from jordanquad.cayley_dickson import CDAlgebra
from jordanquad.errors import AlgebraMismatchError, BasePointError
from jordanquad.jordan import JordanAlgebra
from jordanquad.quadform import evaluate
from jordanquad.scalars import PrimeField, Rationals
from jordanquad import sweeps

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
    rep = sweeps.sampled_quadric_checks(alg, count=15, seed=6, rank_checks=1,
                                        transposition_checks=15)
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
        rep = sweeps.sampled_quadric_checks(alg, count=20, seed=8, rank_checks=2,
                                            transposition_checks=5)
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
