import random
from fractions import Fraction

import pytest
from conftest import assert_canonical, large_scalar, random_scalar
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanquad import cayley_dickson
from jordanquad.cayley_dickson import CDAlgebra, _conj_rec, _mul_rec
from jordanquad.errors import AlgebraMismatchError
from jordanquad.jordan import JordanAlgebra
from jordanquad.quadform import pfister
from jordanquad.scalars import PrimeField, Rationals

Q = Rationals()


def quaternions(field=Q, params=(-1, -1)):
    return CDAlgebra(field, params)


def octonions(field=Q, params=(-1, -1, -1)):
    return CDAlgebra(field, params)


def elements(alg, lo=-5, hi=5):
    return st.lists(st.integers(lo, hi), min_size=alg.dim, max_size=alg.dim).map(alg.element)


def test_construction_limits():
    with pytest.raises(ValueError):
        CDAlgebra(Q, [1, 1, 1, 1])  # r > 3
    with pytest.raises(ValueError):
        CDAlgebra(Q, [0])


def test_basis_squares_match_parameters():
    # e_level^2 = a_level at each doubling level
    for params in ([Fraction(2)], [-1, 3], [-1, -1, -1], [2, 3, 5]):
        alg = CDAlgebra(Q, params)
        for lvl, a in enumerate(params):
            e = alg.basis(1 << lvl)
            assert e * e == alg.from_scalar(Fraction(a))


def test_hamilton_table():
    H = quaternions()
    e = [H.basis(i) for i in range(4)]
    assert e[1] * e[2] == e[3]
    assert e[2] * e[1] == -e[3]
    assert e[1] * e[1] == -H.one()
    assert e[3] * e[3] == -H.one()


def test_unit_law():
    H = quaternions()
    x = H.element([1, 2, 3, 4])
    assert H.one() * x == x and x * H.one() == x


def test_conjugation_examples():
    H = quaternions()
    x = H.one() + 2 * H.basis(1)
    assert x.conj() == H.one() - 2 * H.basis(1)
    assert x.conj().conj() == x


def test_norm_examples():
    H = quaternions()
    assert (H.one() + H.basis(1)).norm() == 2
    assert H.basis(3).norm() == 1          # the a1 a2 slot of <<-1,-1>>
    O = octonions()
    assert O.basis(7).norm() == -(-1) ** 3  # (-a1)(-a2)(-a3) = 1... sign check below
    assert O.basis(7).norm() == 1


def test_norm_gram_equals_pfister_slotwise():
    for field in (Q, PrimeField(7)):
        for params in ([], [-1], [2], [-1, -1], [1, 1], [-1, -1, -1], [1, 2, 3]):
            try:
                alg = CDAlgebra(field, [field.element(a) for a in params])
            except ValueError:
                continue
            pf = pfister(field, [field.element(a) for a in params])
            assert alg.norm_form.coeffs == pf.coeffs
            for i in range(alg.dim):
                assert alg.basis(i).norm() == pf.coeffs[i]


def test_norm_is_mul_by_conjugate():
    H = quaternions()
    x = H.element([1, -2, 3, 5])
    assert x * x.conj() == H.from_scalar(x.norm())
    assert x.conj() * x == H.from_scalar(x.norm())
    assert x + x.conj() == H.from_scalar(x.trace())


@given(x=elements(quaternions()), y=elements(quaternions()))
@settings(max_examples=40, deadline=None)
def test_quaternion_norm_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()


@given(x=elements(octonions()), y=elements(octonions()))
@settings(max_examples=40, deadline=None)
def test_octonion_norm_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()


def test_split_algebra_norm_multiplicative_fp():
    F7 = PrimeField(7)
    alg = CDAlgebra(F7, [F7.element(1), F7.element(1)])  # split quaternions
    import random
    rng = random.Random(3)
    for _ in range(30):
        x = alg.element([rng.randrange(7) for _ in range(4)])
        y = alg.element([rng.randrange(7) for _ in range(4)])
        assert (x * y).norm() == x.norm() * y.norm()


@given(x=elements(quaternions()), y=elements(quaternions()), z=elements(quaternions()))
@settings(max_examples=30, deadline=None)
def test_quaternions_associative(x, y, z):
    assert (x * y) * z == x * (y * z)


def test_octonions_alternative_but_not_associative():
    O = octonions()
    import random
    rng = random.Random(11)
    for _ in range(20):
        x = O.element([rng.randint(-3, 3) for _ in range(8)])
        y = O.element([rng.randint(-3, 3) for _ in range(8)])
        assert (x * x) * y == x * (x * y)
        assert y * (x * x) == (y * x) * x
    # the recorded witness triple
    e1, e2, e4 = O.basis(1), O.basis(2), O.basis(4)
    lhs = (e1 * e2) * e4
    rhs = e1 * (e2 * e4)
    assert lhs == -rhs and lhs != rhs


@given(x=elements(octonions()), y=elements(octonions()))
@settings(max_examples=30, deadline=None)
def test_conjugation_antihomomorphism(x, y):
    assert (x * y).conj() == y.conj() * x.conj()


def test_zero_divisors_in_split_algebra():
    F7 = PrimeField(7)
    alg = CDAlgebra(F7, [F7.element(1), F7.element(1)])
    z = alg.one() + alg.basis(1)   # norm 1 - 1 = 0
    assert z.norm() == F7.zero()
    assert z * z.conj() == alg.zero()


def test_algebra_mismatch():
    with pytest.raises(AlgebraMismatchError):
        quaternions().one() * octonions().one()


def test_table_json_shape():
    H = quaternions()
    t = H.table_json()
    assert len(t) == 4 and len(t[0]) == 4
    assert t[1][2] == {"index": 3, "coef": "1"}


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_flat_arithmetic_matches_doubling_oracle(oracle_field, r):
    """The flat product equals the recursive doubling product, and the
    other flat operations equal their scalar-by-scalar definitions, on
    seeded elements with zero coordinates mixed in."""
    field = oracle_field
    rng = random.Random(f"{field}:{r}")
    for _ in range(4):
        params = [random_scalar(field, rng, zero_frac=0) for _ in range(r)]
        alg = CDAlgebra(field, params)
        # the closed-form table against the doubling product of basis
        # elements, which must be monomial
        basis = [alg.basis(i).coords for i in range(alg.dim)]
        assert [[_mul_rec(ei, ej, alg.params, field) for ej in basis] for ei in basis] == [
            [tuple(alg._gamma[i][j] if t == i ^ j else field.zero() for t in range(alg.dim))
             for j in range(alg.dim)] for i in range(alg.dim)]
        for _ in range(12):
            x, y = (alg.element([random_scalar(field, rng) for _ in range(alg.dim)])
                    for _ in range(2))
            s = random_scalar(field, rng)
            xy = x * y
            assert xy.coords == _mul_rec(x.coords, y.coords, alg.params, field)
            assert all(type(c) is type(field.one()) for c in xy.coords)
            assert (x + y).coords == tuple(a + b for a, b in zip(x.coords, y.coords))
            assert (x - y).coords == tuple(a - b for a, b in zip(x.coords, y.coords))
            assert (-x).coords == tuple(-a for a in x.coords)
            assert (s * x).coords == (x * s).coords == tuple(s * a for a in x.coords)
            assert x.conj().coords == _conj_rec(x.coords)
            assert x.norm() == _mul_rec(x.coords, _conj_rec(x.coords),
                                        alg.params, field)[0]


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_integer_path_with_large_denominators(integer_path_field, r):
    """Every operation equals its oracle (the doubling product, or the
    scalar-by-scalar definition) on coordinates and parameters over large
    coprime denominators, returns canonical scalars, and agrees in == and
    hash with the element built from the expected scalars."""
    field = integer_path_field
    rng = random.Random(f"large:{field}:{r}")
    for _ in range(3):
        alg = CDAlgebra(field, [large_scalar(field, rng, zero_frac=0) for _ in range(r)])
        for _ in range(6):
            x, y = (alg.element([large_scalar(field, rng) for _ in range(alg.dim)])
                    for _ in range(2))
            s = large_scalar(field, rng)
            cases = [
                (x * y, _mul_rec(x.coords, y.coords, alg.params, field)),
                (x + y, [a + b for a, b in zip(x.coords, y.coords)]),
                (x - y, [a - b for a, b in zip(x.coords, y.coords)]),
                (-x, [-a for a in x.coords]),
                (s * x, [s * a for a in x.coords]),
                (x * s, [a * s for a in x.coords]),
                (x.conj(), _conj_rec(x.coords)),
            ]
            for got, want in cases:
                assert got.coords == tuple(want)
                assert_canonical(got.coords, field)
                same = alg.element(want)
                assert got == same and hash(got) == hash(same)
            norm = x.norm()
            assert norm == _mul_rec(x.coords, _conj_rec(x.coords), alg.params, field)[0]
            assert_canonical([norm], field)
            assert (x == y) == (x.coords == y.coords)
            assert x == alg.element(list(x.coords)) and x != x + alg.one()


def test_construction_makes_no_doubling_product(monkeypatch):
    """The table comes from its closed form: building an algebra, and a
    Jordan algebra and its basis on top of it, never runs _mul_rec."""
    def refuse(*args):
        raise AssertionError("_mul_rec called while building an algebra")

    monkeypatch.setattr(cayley_dickson, "_mul_rec", refuse)
    for field in (Q, PrimeField(13)):
        for r in range(4):
            J = JordanAlgebra(CDAlgebra(field, [-1, 2, 3][:r]), [1, 2, 3])
            assert len(J.basis()) == J.dim
