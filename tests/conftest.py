"""Shared strategies and fixtures."""

import math
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from jordanquad import birational
from jordanquad.cayley_dickson import CDElem
from jordanquad.scalars import FpElem, PrimeField, Rationals


@pytest.fixture
def Q():
    return Rationals()


@pytest.fixture
def F7():
    return PrimeField(7)


def rationals(max_num=30):
    return st.fractions(min_value=Fraction(-max_num), max_value=Fraction(max_num),
                        max_denominator=12)


def nonzero_rationals(max_num=30):
    return rationals(max_num).filter(bool)


def fp_elements(p):
    return st.integers(min_value=0, max_value=p - 1).map(PrimeField(p).element)


def nonzero_fp_elements(p):
    return st.integers(min_value=1, max_value=p - 1).map(PrimeField(p).element)


# Fields for the oracle tests of the flat products: Q, two small primes and
# the primes 2^31 - 1 and 2^61 - 1, whose products of residues are big ints.
ORACLE_FIELDS = ("Q", 3, 13, 2**31 - 1, 2**61 - 1)


@pytest.fixture(params=ORACLE_FIELDS, ids=lambda f: f if f == "Q" else f"F{f}")
def oracle_field(request):
    if request.param == "Q":
        return Rationals()
    return PrimeField(request.param)


def random_scalar(field, rng, zero_frac=0.3):
    """A seeded field scalar, 0 with probability zero_frac; over Q a small
    fraction, over F_p any residue."""
    if rng.random() < zero_frac:
        return field.zero()
    if field.kind == "Q":
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 9))
    return field.element(rng.randrange(1, field.p))


# Primes near 10^6 and 10^9 for denominators: coprime, so the common
# denominators of the integer arithmetic grow into products of several.
LARGE_PRIMES = (999983, 1000003, 999999937, 1000000007)
INTEGER_PATH_FIELDS = ("Q", 3, 13, 2**31 - 1)


@pytest.fixture(params=INTEGER_PATH_FIELDS, ids=lambda f: f if f == "Q" else f"F{f}")
def integer_path_field(request):
    if request.param == "Q":
        return Rationals()
    return PrimeField(request.param)


def large_scalar(field, rng, zero_frac=0.3):
    """A seeded field scalar, 0 with probability zero_frac; over Q a
    numerator of either sign below 10^9 over 1 or a product of one or two
    LARGE_PRIMES, over F_p any residue."""
    if rng.random() < zero_frac:
        return field.zero()
    if field.kind != "Q":
        return field.element(rng.randrange(1, field.p))
    den = math.prod(rng.sample(LARGE_PRIMES, rng.randint(0, 2)))
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**9), den)


def assert_canonical(scalars, field):
    """Each scalar is a Fraction in lowest terms over Q, an FpElem with a
    residue in [0, p) over F_p."""
    for c in scalars:
        if field.kind == "Q":
            assert type(c) is Fraction
            assert c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1
        else:
            assert type(c) is FpElem and c.p == field.p and 0 <= c.v < field.p


def veronese_matrix(point):
    """The full n x n matrix [c_i conj(c_j) b_j] of a point, in the base
    locus or not: the library's image values, each coordinate wrapped."""
    cd = point.algebra.cd
    rows, den = birational._veronese_values(point)
    return [[CDElem(cd, cd.field.wrap(v, den)) for v in row] for row in rows]


def point_from_flat(alg, w):
    """The point whose ProjPointC.flatten is w: slot-major coordinates, the
    n - 1 CD blocks interleaved slot by slot, then the scalar slot."""
    nn = alg.n - 1
    cparts = [alg.cd.element(w[i:nn * alg.cd.dim:nn]) for i in range(nn)]
    return birational.ProjPointC(alg, cparts, w[-1])
