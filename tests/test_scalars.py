import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jordanquad.errors import FieldMismatchError
from jordanquad.scalars import (MR_BOUND, PrimeField, Rationals, factor,
                                field_from_spec, is_prime)

from conftest import LARGE_PRIMES, fp_elements, rationals

ODD_PRIMES_BELOW_100 = [p for p in range(3, 100) if all(p % q for q in range(2, p))]


def test_rational_arithmetic_exact():
    Q = Rationals()
    assert Q.element("1/2") + Q.element("1/3") == Fraction(5, 6)


def test_fp_arithmetic():
    F7 = PrimeField(7)
    assert F7.element(3) * F7.element(5) == F7.element(1)
    assert F7.element(3) - 5 == F7.element(-2)
    assert F7.element(2) / F7.element(3) == F7.element(3)  # 3*3 = 9 = 2


def test_division_by_zero():
    F7 = PrimeField(7)
    with pytest.raises(ZeroDivisionError):
        F7.element(4) / F7.element(0)
    with pytest.raises(ZeroDivisionError):
        Rationals().element(4) / Rationals().element(0)


def test_field_mismatch():
    with pytest.raises(FieldMismatchError):
        PrimeField(7).element(1) + PrimeField(11).element(1)
    with pytest.raises(FieldMismatchError):
        PrimeField(7).element(1) * Fraction(1, 2)


def test_characteristic_two_and_nonprime_rejected():
    with pytest.raises(ValueError):
        PrimeField(2)
    with pytest.raises(ValueError):
        PrimeField(9)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_is_square_fp():
    F7 = PrimeField(7)
    # oracle: squares mod 7 by exhaustion
    squares = {(x * x) % 7 for x in range(1, 7)}
    assert squares == {1, 2, 4}
    assert F7.is_square(2)          # 3^2 = 9 = 2
    assert not F7.is_square(-1)     # -1 = 6 not in {1,2,4}
    for v in range(1, 7):
        assert F7.is_square(v) == (v in squares)
    with pytest.raises(ValueError):
        F7.is_square(0)
    for p in ODD_PRIMES_BELOW_100:
        Fp = PrimeField(p)
        squares = {x * x % p for x in range(1, p)}
        assert [Fp.is_square(v) for v in range(-p, 2 * p) if v % p] == [
            v % p in squares for v in range(-p, 2 * p) if v % p], p


def test_is_square_rationals():
    Q = Rationals()
    assert Q.is_square(Fraction(4, 9))
    assert not Q.is_square(Fraction(-4, 9))
    assert not Q.is_square(Fraction(2))
    assert Q.is_square(Fraction(49, 16))
    with pytest.raises(ValueError):
        Q.is_square(0)


def test_square_class_canonical():
    Q = Rationals()
    assert Q.square_class(Fraction(8)) == 2          # 8 = 2 * 2^2
    assert Q.square_class(Fraction(-12)) == -3
    assert Q.square_class(Fraction(9, 2)) == 2       # 9/2 ~ 2 mod squares
    F7 = PrimeField(7)
    assert F7.square_class(2) == F7.one()
    assert F7.square_class(F7.element(-1)) == F7.element(F7.least_nonresidue())
    assert F7.least_nonresidue() == 3
    for p in ODD_PRIMES_BELOW_100:
        Fp = PrimeField(p)
        squares = {x * x % p for x in range(1, p)}
        u = min(set(range(1, p)) - squares)
        assert Fp.least_nonresidue() == u, p
        assert [Fp.square_class(v) for v in range(1, p)] == [
            Fp.one() if v in squares else Fp.element(u) for v in range(1, p)], p


@given(a=rationals(), b=rationals(), c=rationals())
def test_field_axioms_rationals(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if a:
        assert a * (1 / a) == 1


@given(a=fp_elements(11), b=fp_elements(11), c=fp_elements(11))
def test_field_axioms_fp(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if a:
        assert a * (PrimeField(11).one() / a) == 1


@given(a=rationals().filter(bool), b=rationals().filter(bool))
def test_square_class_invariance_q(a, b):
    Q = Rationals()
    assert Q.is_square(a * b * b) == Q.is_square(a)


@given(a=st.integers(1, 12), b=st.integers(1, 12))
def test_square_class_invariance_fp(a, b):
    F13 = PrimeField(13)
    x, y = F13.element(a), F13.element(b)
    assert F13.is_square(x * y * y) == F13.is_square(x)


def test_field_from_spec():
    assert field_from_spec("Q") == Rationals()
    assert field_from_spec("Fp", 7) == PrimeField(7)
    with pytest.raises(ValueError):
        field_from_spec("Fp")
    with pytest.raises(ValueError):
        field_from_spec("R")
    with pytest.raises(ValueError, match="only allowed"):
        field_from_spec("Q", 5)


def test_fp_coercion_of_fractions():
    F7 = PrimeField(7)
    assert F7.element(Fraction(1, 2)) == F7.element(4)  # 2*4 = 8 = 1
    with pytest.raises(ZeroDivisionError):
        F7.element(Fraction(1, 7))


def _trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


@given(st.integers(min_value=1, max_value=10 ** 7))
def test_factor_multiplies_back_to_primes(n):
    exponents = factor(n)
    assert math.prod(q ** e for q, e in exponents.items()) == n
    assert all(_trial_division_is_prime(q) and e >= 1 for q, e in exponents.items())
    assert is_prime(n) == _trial_division_is_prime(n)


def _sieve(n):
    flags = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for q in range(2, math.isqrt(n - 1) + 1):
        if flags[q]:
            flags[q * q::q] = bytes(len(range(q * q, n, q)))
    return flags


def test_is_prime_small_against_trial_division():
    # below 43^2 the divisibility loop over the bases decides alone, then
    # base 2 up to 2047 and bases 2 and 3 on to 10^5, checked by a sieve
    assert [n for n in range(3000) if is_prime(n)] == [
        n for n in range(3000) if _trial_division_is_prime(n)]
    assert [n for n in range(10 ** 5) if is_prime(n)] == list(
        itertools.compress(range(10 ** 5), _sieve(10 ** 5)))


def test_is_prime_large():
    # Mersenne numbers, and the least strong pseudoprimes to the prime bases
    # up to 23 and up to 31 (each base in turn would be fooled alone)
    assert is_prime(2 ** 31 - 1) and is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 67 - 1)   # 193707721 * 761838257287
    assert not is_prime(149491 * 747451 * 34233211)
    assert not is_prime(399165290221 * 798330580441)
    assert is_prime(MR_BOUND - 2) == (pow(2, MR_BOUND - 3, MR_BOUND - 2) == 1)
    # the least strong pseudoprime to every base up to 41 is the bound itself
    for n in (MR_BOUND, 1287836182261 * 2575672364521, 2 ** 89 - 1):
        with pytest.raises(ValueError, match="too large"):
            is_prime(n)


# The least strong pseudoprime to the first k prime bases, for each k at
# which it grows, with its factors (Jaeschke 1993; Sorenson and Webster
# 2015): below it those k bases decide, and is_prime stops there.
LEAST_STRONG_PSEUDOPRIMES = [
    (1, 2047, (23, 89)),
    (2, 1_373_653, (829, 1657)),
    (3, 25_326_001, (2251, 11251)),
    (4, 3_215_031_751, (151, 751, 28351)),
    (5, 2_152_302_898_747, (6763, 10627, 29947)),
    (6, 3_474_749_660_383, (1303, 16927, 157543)),
    (8, 341_550_071_728_321, (10670053, 32010157)),
    (11, 3_825_123_056_546_413_051, (149491, 747451, 34233211)),
    (12, 318_665_857_834_031_151_167_461, (399165290221, 798330580441)),
]
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _sieve_window(lo, hi, small):
    """Primality of lo..hi-1 (lo > 1), crossing off multiples of the primes
    flagged in small, which must reach sqrt(hi)."""
    flags = bytearray([1]) * (hi - lo)
    for q in itertools.compress(range(len(small)), small):
        start = max(q * q, -(-lo // q) * q)
        flags[start - lo::q] = bytes(len(range(start - lo, hi - lo, q)))
    return flags


def test_is_prime_at_each_base_bound():
    """Each least strong pseudoprime is composite (its factors multiply out)
    and fools every base before its bound, yet is_prime refuses it.  From
    the prime below each bound to the prime above, is_prime agrees with a
    segmented sieve up to 3.5 * 10^12, and beyond with all 13 bases, which
    decide below MR_BOUND."""
    small = _sieve(math.isqrt(3_474_749_660_383 + 1000) + 1)
    for k, n, factors in LEAST_STRONG_PSEUDOPRIMES:
        assert math.prod(factors) == n and all(1 < q < n for q in factors)
        assert all(_strong_probable_prime(n, a) for a in PRIME_BASES[:k])
        assert not is_prime(n)
        if n < 4 * 10 ** 12:
            lo = n - 1000
            flags = _sieve_window(lo, n + 1000, small)
            truth = lambda m: flags[m - lo]
        else:
            truth = lambda m: all(_strong_probable_prime(m, a) for a in PRIME_BASES)
        below = next(m for m in range(n - 1, 0, -1) if truth(m))
        above = next(m for m in itertools.count(n + 1) if truth(m))
        assert all(is_prime(m) == bool(truth(m)) for m in range(below, above + 1)), n
    with pytest.raises(ValueError, match="too large"):
        is_prime(MR_BOUND)


def test_factor_examples():
    assert factor(1) == {}
    assert factor(360) == {2: 3, 3: 2, 5: 1}
    assert factor(99999999977 * 6) == {2: 1, 3: 1, 99999999977: 1}
    for bad in (0, -4):
        with pytest.raises(ValueError):
            factor(bad)


def _assert_factorization(n, exponents):
    assert math.prod(q ** e for q, e in exponents.items()) == n
    assert all(is_prime(q) and e >= 1 for q, e in exponents.items())
    assert list(exponents) == sorted(exponents)


def test_factor_oracle_cases():
    # primes on both sides of the trial-division bound 2^10, products of
    # them, squares and cubes of the first primes above it, Carmichael
    # numbers, strong pseudoprimes, and large prime powers
    below = (2, 3, 7, 1019, 1021)
    above = (1031, 1033, 1039, 65537, 99999999977, 2 ** 31 - 1)
    primes = below + above
    cases = [p * q for p in primes for q in primes]
    cases += [p * q * r for p, q, r in zip(primes, above, reversed(primes))]
    cases += [p ** k for p in (1031, 1033, 1039) for k in (2, 3)]
    cases += [561, 41041, 2 ** 67 - 1, 149491 * 747451 * 34233211,
              399165290221 * 798330580441]
    cases += [2 ** 100 * 3, 3 ** 1000 * 1021 ** 100, 1031 ** 7, (2 ** 31 - 1) ** 2,
              (2 ** 61 - 1) * 1031 ** 2]
    for n in cases:
        _assert_factorization(n, factor(n))
    assert factor(1031 ** 3 * 2) == {2: 1, 1031: 3}
    assert factor(399165290221 * 798330580441) == {399165290221: 1,
                                                   798330580441: 1}


def test_factor_refuses_cofactors_beyond_primality_bound():
    for n in (MR_BOUND, 2 ** 89 - 1, 10 ** 30 + 57, 1031 ** 9):
        with pytest.raises(ValueError, match=f"factor: {n} is too large"):
            factor(n)
    assert factor(2 ** 200 * (MR_BOUND - 2)) == {2: 200, **factor(MR_BOUND - 2)}


def _trial_division_factor(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_square_class_of_large_fraction():
    num = 2 ** 3 * 1033 ** 2 * 999983          # about 8.5 * 10^12
    den = 3 * 7 * 99999999977                 # about 2.1 * 10^12
    a = Fraction(-num, den)
    exponents = Counter(_trial_division_factor(num))
    exponents.update(_trial_division_factor(den))
    expected = -math.prod(q for q, e in exponents.items() if e % 2)
    assert Rationals().square_class(a) == expected == -2 * 3 * 7 * 999983 * 99999999977


@pytest.mark.parametrize("sign, num_primes, den_primes", [
    (1, {10 ** 13 + 37: 1}, {10 ** 13 + 51: 1}),
    (-1, {2 ** 61 - 1: 1, 1033: 2}, {3: 3, 10 ** 13 + 51: 1}),
    (1, {5: 1, 7: 2, 10 ** 13 + 37: 1}, {2 ** 31 - 1: 2}),
])
def test_square_class_factors_numerator_and_denominator_apart(sign, num_primes, den_primes):
    """Each part is below the factoring limit but their product is not, so
    factoring abs(numerator) * denominator refused these."""
    assert all(is_prime(q) for q in {**num_primes, **den_primes})
    num = math.prod(q ** e for q, e in num_primes.items())
    den = math.prod(q ** e for q, e in den_primes.items())
    assert num * den >= MR_BOUND
    odd = [q for q, e in {**num_primes, **den_primes}.items() if e % 2]
    assert Rationals().square_class(Fraction(sign * num, den)) == sign * math.prod(odd)


def test_plain_value_protocol():
    """unwrap gives integers over one common denominator, value a
    (num, den) pair, and wrap builds the scalars back, each reduced."""
    Q = Rationals()
    xs = [Fraction(3, LARGE_PRIMES[0]), Fraction(-7, LARGE_PRIMES[0] * LARGE_PRIMES[2]),
          Fraction(0), Fraction(5), Fraction(1, 6)]
    ints, den = Q.unwrap(xs)
    assert den == LARGE_PRIMES[0] * LARGE_PRIMES[2] * 6
    assert [Fraction(v, den) for v in ints] == xs and Q.wrap(ints, den) == tuple(xs)
    assert Q.wrap([v * 35 for v in ints], den * 35) == tuple(xs)
    assert Q.value("-4/6") == (-2, 3) and Q.unwrap([]) == ([], 1)
    # zeros, which wrap to one shared Fraction(0), among the values
    for vs, den in (([0, 3, 0, -4, 0], 6), ([0, 0], 1), ([0, 5], -35)):
        got = Q.wrap(vs, den)
        assert got == tuple(Fraction(v, den) for v in vs)
        assert [x.as_integer_ratio() for x in got] == [
            Fraction(v, den).as_integer_ratio() for v in vs]
    for p in (3, 13, 2**31 - 1):
        F = PrimeField(p)
        ys = [F.element(v) for v in (0, 1, p - 1, 2, p + 5)]
        assert F.unwrap(ys) == ([y.v for y in ys], 1)
        assert F.wrap(*F.unwrap(ys)) == tuple(ys)
        assert F.value(Fraction(1, 2)) == ((p + 1) // 2, 1)
        # a denominator other than 1 divides, as it does over Q
        assert F.wrap([1, -3, 7], 2) == tuple(F.element(Fraction(v, 2)) for v in (1, -3, 7))


def test_floats_rejected():
    with pytest.raises(TypeError):
        Rationals().element(0.1)
    with pytest.raises(TypeError):
        PrimeField(7).element(0.5)


def test_rational_strings_are_integers_or_fractions():
    """Strings read as an optional sign and digits, optionally over '/'
    and digits, on both fields; the decimals and exponents Fraction also
    reads are refused, the long exponent without being expanded."""
    Q = Rationals()
    assert [Q.element(t) for t in ("7", " -3/4 ", "+6/8")] == [7, Fraction(-3, 4),
                                                               Fraction(3, 4)]
    F = PrimeField(7)
    assert [F.element(t) for t in ("7", " -3/4 ", "+6/8")] == [0, 1, 6]
    for text in ("0.5", "1e3", "1e10000000", "1_000", "", "nan", "inf", "1/", "/2", "1 / 2"):
        for field in (Q, F):
            with pytest.raises(ValueError):
                field.element(text)


def test_fp_int_equality_is_canonical_residue():
    x = PrimeField(7).element(3)
    assert x == 3 and 3 in {x} and x in {3}
    assert x != 10 and x != -4


@given(v=st.integers(0, 12), k=st.integers(-30, 30))
def test_fp_equal_int_hashes_equal(v, k):
    x = PrimeField(13).element(v)
    if x == k:
        assert hash(x) == hash(k)
    assert (x == k) == (k == x) == (k in {x})
